GO ?= go

.PHONY: check vet build test smoke soak bench bench-smoke compare-smoke check-mcheck fuzz-smoke fuzz clean

check: vet build test smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# A fast end-to-end run of the benchmark CLI on the worker pool.
smoke:
	$(GO) run ./cmd/pccbench -exp fig7 -parallel 4 > /dev/null
	@echo "smoke: pccbench -exp fig7 -parallel 4 OK"

# The `pccsim serve` soak harness: builds the real binary, hammers one
# server with 8 concurrent clients, and asserts the service contract
# (memoized duplicates, byte-identity with the CLI, graceful SIGTERM
# drain). CI runs this as its own job.
soak:
	PCCSIM_SOAK=1 PCCSIM_SOAK_CLIENTS=8 $(GO) test -count=1 -v -run TestSoak ./cmd/pccsim

# Micro- and macro-benchmarks. The go benches cover the event engine, the
# network delivery pipeline, the directory tables, and the bit-vector ops;
# pccperf then refreshes BENCH_pr2.json with engine throughput and the
# full-suite wall time.
bench:
	$(GO) test -bench=. -benchmem ./internal/sim/... ./internal/network/... \
		./internal/directory/... ./internal/addrtab/... ./internal/msg/... \
		./internal/obs/... .
	$(GO) run ./cmd/pccperf -o BENCH_pr2.json
	$(GO) run ./cmd/pccperf -shards-sweep -shards-o BENCH_pr8.json
	$(GO) run ./cmd/pccperf -mcheck-sweep -mcheck-o BENCH_pr9.json
	$(GO) run ./cmd/pccperf -protocols -protocols-o BENCH_pr10.json

# One-iteration bench smoke for CI: compiles and runs every benchmark
# once, then gates the engine and suite numbers against the committed
# baseline (2x tolerance absorbs runner noise; the gate catches hot-loop
# regressions, not wobbles). The ZeroAlloc pass pins the observability
# layer's disabled path (and the enabled Emit itself) and the model
# checker's canonicalizer at 0 allocs/op.
bench-smoke: compare-smoke
	$(GO) test -bench=. -benchtime=1x ./internal/sim/... ./internal/network/... ./internal/obs/...
	$(GO) test -run '^$$' -bench 'Canonical|Successors' -benchtime=1x ./internal/mcheck/
	$(GO) test -run ZeroAlloc -count=1 ./internal/sim/... ./internal/network/... \
		./internal/addrtab/... ./internal/obs/... ./internal/mcheck/...
	$(GO) run ./cmd/pccperf -check BENCH_pr2.json
	$(GO) run ./cmd/pccperf -check-shards BENCH_pr8.json
	$(GO) run ./cmd/pccperf -check-mcheck BENCH_pr9.json
	$(GO) run ./cmd/pccperf -check-protocols BENCH_pr10.json

# The protocol bake-off gate: the -compare table and the fig9/fig10
# sweeps must reproduce the committed goldens byte for byte — the
# fig9/fig10 diffs prove the paper's protocol is unchanged behind the
# plugin interface, the compare diff pins every contender. (Output is
# worker-count invariant, so -parallel only affects wall time.)
compare-smoke:
	$(GO) run ./cmd/pccbench -compare -format csv -parallel 4 | diff -u testdata/compare.golden.csv -
	$(GO) run ./cmd/pccbench -exp fig9 -format csv -parallel 4 | diff -u testdata/fig9.golden.csv -
	$(GO) run ./cmd/pccbench -exp fig10 -format csv -parallel 4 | diff -u testdata/fig10.golden.csv -
	@echo "compare-smoke: goldens reproduced byte-identically"

# The model-checker gate: worker-count invariance and litmus equivalence
# under the race detector, the corpus counterexamples replayed, and the
# exploration-throughput baseline checked. CI runs this plus a bounded
# deep-configuration exploration as its own job.
check-mcheck:
	$(GO) test -race -count=1 ./internal/mcheck/... ./internal/fault/...
	$(GO) run ./cmd/pccperf -check-mcheck BENCH_pr9.json

# Seeded fuzzing under fault injection. fuzz-smoke is the quick PR gate;
# fuzz is the long campaign the nightly workflow runs.
fuzz-smoke:
	$(GO) run -race ./cmd/pccfuzz -seed 1 -n 500 -t 2m -o fuzz-failures
	$(GO) run -race ./cmd/pccfuzz -seed 2 -n 100 -t 1m -protocol hybrid -o fuzz-failures
	$(GO) run -race ./cmd/pccfuzz -seed 3 -n 100 -t 1m -protocol dsi -o fuzz-failures

fuzz:
	$(GO) run -race ./cmd/pccfuzz -seed $$(date +%Y%m%d) -t 20m -n 0 -o fuzz-failures

clean:
	$(GO) clean ./...
