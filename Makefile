GO ?= go

.PHONY: check vet build test smoke soak bench bench-smoke bench-compare compare-smoke check-mcheck fuzz-smoke fuzz loc clean

check: vet build test smoke

# vet also fails on any Go file gofmt would rewrite (files .gitignore
# covers, such as the parent tree bench-compare unpacks, are skipped).
vet:
	$(GO) vet ./...
	@unformatted=$$(git ls-files -co --exclude-standard '*.go' | xargs -r gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

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

# Go micro-benchmarks of the event engine, the network delivery
# pipeline, the caches and RAC, the directory tables, the bit-vector ops
# and observability. The end-to-end benchmark is perfbench (see
# bench-compare).
bench:
	$(GO) test -bench=. -benchmem ./internal/sim/... ./internal/network/... \
		./internal/cache/... ./internal/rac/... \
		./internal/directory/... ./internal/addrtab/... ./internal/msg/... \
		./internal/obs/... .

# One-iteration bench smoke for CI: compiles and runs every benchmark
# once. The ZeroAlloc pass pins the observability layer's disabled path
# (and the enabled Emit itself), the caches' steady-state access path,
# the engine's typed events and its wheel slab (a spread of events
# reuses the slots a burst grew, leaving the slab at its peak), the hub's
# hit, merge, retry and timer paths after an 8-run warm-up, the op
# builder's appends, the model checker's canonicalizer and its engine's
# state expansion (TestExpandZeroAlloc) at 0 allocs/op; the Size pins
# hold the engine's wheel entry at <= 32 bytes, cpu.Op at 16, the
# directory cache's detector at <= 40, cache.Line and rac.Line at
# <= 32 and the directory entry at <= 152.
bench-smoke: compare-smoke
	$(GO) test -bench=. -benchtime=1x ./internal/sim/... ./internal/network/... ./internal/obs/... \
		./internal/cache/...
	$(GO) test -run '^$$' -bench 'Canonical|Successors' -benchtime=1x ./internal/mcheck/
	$(GO) test -run 'ZeroAlloc|Size$$' -count=1 ./internal/sim/... ./internal/network/... \
		./internal/addrtab/... ./internal/obs/... ./internal/mcheck/... ./internal/cache/... \
		./internal/core/... ./internal/workload/... ./internal/predictor/... ./internal/rac/... \
		./internal/directory/...

# The performance gate: perfbench built from the committed tree of BASE
# (the parent) and from this checkout (the change), every workload run
# in BENCH_PAIRS pairs that alternate which side goes first, each run
# BENCH_SECONDS long on both sides, then judged by pccperf under
# BENCHMARK.json's bounds. pccperf fails when a run is incorrect, when
# the change fails a larger share of operations, or when a median is
# worse by more than its bound; a metric whose parent runs spread wider
# than the bound is reported unresolved. The runs stay in BENCH_OUT.
# pccperf fails any BENCHMARK.json workload without runs, so
# BENCH_WORKLOADS cannot silently fall behind it.
BASE ?= HEAD
BENCH_WORKLOADS = adaptive-barnes bakeoff wide-256 mcheck-deep
BENCH_PAIRS = 3
BENCH_SECONDS = 10
BENCH_OUT = .bench_compare
bench-compare:
	rm -rf $(BENCH_OUT)/src $(BENCH_OUT)/parent $(BENCH_OUT)/change
	mkdir -p $(BENCH_OUT)/src $(BENCH_OUT)/parent $(BENCH_OUT)/change
	git archive $(BASE) | tar -x -C $(BENCH_OUT)/src
	@set -e; out=$$(cd $(BENCH_OUT) && pwd); \
	parent() { (cd $$out/src && CARGO_TARGET_DIR=$$out/build-parent bash perfbench/run.sh \
		--workload $$1 --seed 1 --seconds $(BENCH_SECONDS) --trace 0 > $$out/parent/$$1.$$2.out); }; \
	change() { CARGO_TARGET_DIR=$$out/build-change bash perfbench/run.sh \
		--workload $$1 --seed 1 --seconds $(BENCH_SECONDS) --trace 0 > $$out/change/$$1.$$2.out; }; \
	for w in $(BENCH_WORKLOADS); do for i in $$(seq $(BENCH_PAIRS)); do \
		echo "bench-compare: $$w pair $$i"; \
		if [ $$((i % 2)) = 1 ]; then parent $$w $$i; change $$w $$i; \
		else change $$w $$i; parent $$w $$i; fi; \
	done; done
	$(GO) run ./cmd/pccperf $(BENCH_OUT)/parent $(BENCH_OUT)/change

# The evaluation gate: the bake-off table, the fig9/fig10 sweeps, every
# experiment's printed table and the JSON report must reproduce the
# committed goldens byte for byte — the fig9/fig10 diffs prove the
# paper's protocol is unchanged, the compare diff pins every contender,
# and the all/json diffs pin every other table and the report. (Output
# is worker-count invariant, so -parallel only affects wall time.)
compare-smoke:
	$(GO) run ./cmd/pccbench -exp compare -format csv -parallel 4 | diff -u testdata/compare.golden.csv -
	$(GO) run ./cmd/pccbench -exp fig9 -format csv -parallel 4 | diff -u testdata/fig9.golden.csv -
	$(GO) run ./cmd/pccbench -exp fig10 -format csv -parallel 4 | diff -u testdata/fig10.golden.csv -
	$(GO) run ./cmd/pccbench -exp all -parallel 4 | diff -u testdata/all.golden.txt -
	$(GO) run ./cmd/pccbench -format json -parallel 4 | diff -u testdata/all.golden.json -
	@echo "compare-smoke: goldens reproduced byte-identically"

# The model-checker gate: worker-count invariance, the pinned state and
# transition counts and litmus equivalence under the race detector, and
# the corpus counterexamples replayed. CI runs this plus a bounded
# deep-configuration exploration as its own job.
check-mcheck:
	$(GO) test -race -count=1 ./internal/mcheck/... ./internal/fault/...

# Seeded fuzzing under fault injection. fuzz-smoke is the quick PR gate;
# fuzz is the long campaign the nightly workflow runs.
fuzz-smoke:
	$(GO) run -race ./cmd/pccfuzz -seed 1 -n 500 -t 2m -o fuzz-failures
	$(GO) run -race ./cmd/pccfuzz -seed 2 -n 100 -t 1m -protocol hybrid -o fuzz-failures
	$(GO) run -race ./cmd/pccfuzz -seed 3 -n 100 -t 1m -protocol dsi -o fuzz-failures

fuzz:
	$(GO) run -race ./cmd/pccfuzz -seed $$(date +%Y%m%d) -t 20m -n 0 -o fuzz-failures

# The size of the program: lines in the non-test Go files outside
# perfbench/ (tracked or unignored). A change reports its net line delta
# as the difference of this figure before and after it.
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v -e '_test\.go$$' -e '^perfbench/' | \
		xargs cat | wc -l | sed 's/^ */loc: /; s/$$/ non-test Go lines outside perfbench\//'

clean:
	$(GO) clean ./...
