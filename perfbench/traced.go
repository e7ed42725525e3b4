package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"pccsim/internal/node"
	"pccsim/internal/obs"
	"pccsim/internal/perf"
	"pccsim/internal/workload"
)

// perLayer lists the per-layer metrics of the traced run; every traced
// run prints all of them, zero where the workload does not use the layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "workload.build_s", unit: "s"},
		{name: "workload.ops", unit: "count"},
		{name: "node.new_s", unit: "s"},
		{name: "sim.events", unit: "count"},
		{name: "sim.ns_per_event", unit: "ns"},
		{name: "sim.churn_ns_per_event", unit: "ns"},
		{name: "sim.cycles", unit: "cycles"},
		{name: "sim.group.windows", unit: "count"},
		{name: "sim.group.events_per_window", unit: "count"},
		{name: "sim.group.speedup_vs_serial", unit: "ratio"},
		{name: "network.msgs", unit: "count"},
		{name: "network.bytes", unit: "B"},
		{name: "network.avg_hops", unit: "hops"},
		{name: "network.replay_ns_per_msg", unit: "ns"},
		{name: "core.misses_local_rac", unit: "count"},
		{name: "core.misses_local_home", unit: "count"},
		{name: "core.misses_remote_2hop", unit: "count"},
		{name: "core.misses_remote_3hop", unit: "count"},
		{name: "core.nacks", unit: "count"},
		{name: "core.retries", unit: "count"},
		{name: "core.delegations", unit: "count"},
		{name: "core.undelegations", unit: "count"},
		{name: "core.update_accuracy", unit: "ratio"},
		{name: "protocol.adaptive_speedup_vs_mesi", unit: "ratio"},
		{name: "cache.replay_ns_per_access", unit: "ns"},
		{name: "cache.replay_hit_ratio", unit: "ratio"},
		{name: "rac.hits", unit: "count"},
		{name: "directory.replay_ns_per_lookup", unit: "ns"},
		{name: "obs.overhead_ratio", unit: "ratio"},
		{name: "obs.events", unit: "count"},
		{name: "runner.cells", unit: "count"},
		{name: "runner.cell_s_sum", unit: "s"},
		{name: "runner.longest_cell_s", unit: "s"},
		{name: "runner.parallel_efficiency", unit: "ratio"},
		{name: "gc.alloc_mb", unit: "MB"},
		{name: "gc.cycles", unit: "count"},
		{name: "gc.pause_s", unit: "s"},
		{name: "gc.cpu_share", unit: "ratio"},
		{name: "mcheck.states", unit: "count"},
		{name: "mcheck.transitions", unit: "count"},
		{name: "mcheck.dedup_ratio", unit: "ratio"},
		{name: "mcheck.peak_frontier", unit: "count"},
		{name: "mcheck.successors_ns", unit: "ns"},
		{name: "mcheck.canon_ns", unit: "ns"},
		{name: "recon.profile_coverage", unit: "ratio"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{name: l + ".self_share", unit: "ratio"})
	}
	return defs
}()

// traceRun is the traced run: the same closed loop as the untraced run
// with a span around each call into a layer and a CPU profile of each
// operation, followed by the isolated replays and the cross-checks that
// need extra runs. It reports the per-layer metrics.
func traceRun(w *benchWorkload, e *env, seconds float64, out io.Writer) *result {
	tr := &tracer{}
	prof := newProfileSum()
	var gcSum gcStats
	var profErr error
	var buf bytes.Buffer
	var g0 gcStats
	hooks := &loopHooks{
		before: func() {
			buf.Reset()
			g0 = readGC()
			if err := pprof.StartCPUProfile(&buf); err != nil && profErr == nil {
				profErr = err
			}
		},
		after: func(*opResult) {
			pprof.StopCPUProfile()
			gcSum.add(readGC().sub(g0))
			if err := prof.add(buf.Bytes()); err != nil && profErr == nil {
				profErr = err
			}
		},
	}
	ops, res := runOps(w, e, seconds, tr, hooks)
	if profErr != nil {
		res.fail(profErr)
	}
	x := w.extras(e, ops, res, tr)

	vals := layerValues(w, ops, x, prof, gcSum)
	res.metrics = make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		res.metrics[d.name] = metric{vals[d.name], d.unit}
	}

	host := hostOf(w, e.seed, true)
	fmt.Fprintf(out, "perfbench %s seed=%d traced: %d ops, %d failed (nproc %d, GOMAXPROCS %d, %d workers, %s)\n",
		w.name, e.seed, res.attempted, res.failed, host.NumCPU, host.GOMAXPROCS, host.Workers, host.GoVersion)
	printSpans(out, tr.tree(), 0)
	printLayers(out, res.metrics)
	writeRecord(out, host, res, nil)
	return res
}

// extraResults are the per-layer numbers measured outside the loop.
type extraResults struct {
	obsRatio      float64
	obsEvents     uint64
	cacheNs       float64
	cacheHit      float64
	dirNs         float64
	netNs         float64
	churnNs       float64
	serialSpeedup float64
	successorsNs  float64
	canonNs       float64
}

// churnEvents sizes the engine-only churn microbenchmark (perf.BenchEngine).
const churnEvents = 2_000_000

// extras measures what the loop cannot: the obs overhead, the isolated
// replays, the engine churn and, for wide-256, the scheduler cross-checks.
// An output that disagrees with the loop's counts as a failed operation.
func (w *benchWorkload) extras(e *env, ops []opResult, res *result, tr *tracer) extraResults {
	var x extraResults
	root := tr.open(noSpan, "extras", time.Now())
	defer func() { tr.close(root, time.Now()) }()

	if w.kind == mcheckOp {
		t0 := time.Now()
		sample := stateSample(w.mcfg, 2000)
		x.successorsNs, x.canonNs = replayMCheck(w.mcfg, sample)
		tr.add(root, "replay.mcheck", t0, time.Now())
		return x
	}

	// The probe cell: the operation itself for a single-machine workload;
	// for the bake-off, its barnes cell under the adaptive protocol.
	cfg, app, p := w.machineConfig(w.shards, w.workers > 1), w.app, w.params(e.seed)
	want := ""
	if w.kind == machineOp && len(ops) > 0 {
		want = ops[0].digest
	}
	check := func(what string, r opResult) bool {
		res.attempted++
		switch {
		case r.err != nil:
			res.fail(fmt.Errorf("%s: %w", what, r.err))
		case want != "" && r.digest != want:
			res.fail(fmt.Errorf("%s: output digest %s, the loop's was %s", what, r.digest, want))
		default:
			return true
		}
		return false
	}

	// Tracing overhead: the same run without and with a metrics-only sink
	// (what Machine.Observe(0) attaches), alternated, fastest of each.
	var plain, observed time.Duration
	for i := 0; i < 2; i++ {
		r := runMachine(cfg, app, p, tr, root)
		if check("untraced run", r) && (plain == 0 || r.run < plain) {
			plain = r.run
		}
		if want == "" {
			want = r.digest
		}
		sink := obs.NewSink(0)
		r = runMachine(cfg, app, p, tr, root, node.WithSink(sink))
		if check("observed run", r) && (observed == 0 || r.run < observed) {
			observed = r.run
		}
		x.obsEvents = sink.Total()
	}
	if plain > 0 {
		x.obsRatio = float64(observed) / float64(plain)
	}

	rec, r := record(cfg, app, p, tr, root)
	check("recording run", r)
	wl, err := workload.Lookup(app)
	if err != nil {
		res.fail(err)
		return x
	}
	t0 := time.Now()
	x.cacheNs, x.cacheHit = replayCache(cfg, wl.Build(p))
	t1 := time.Now()
	x.dirNs = replayDirectory(rec.misses)
	t2 := time.Now()
	x.netNs = replayNetwork(cfg, rec.sends)
	t3 := time.Now()
	tr.add(root, "replay.cache", t0, t1)
	tr.add(root, "replay.directory", t1, t2)
	tr.add(root, "replay.network", t2, t3)

	n, d := perf.BenchEngine(churnEvents, 64)
	x.churnNs = float64(d.Nanoseconds()) / float64(n)
	tr.add(root, "sim.churn", t3, time.Now())

	if w.shards > 1 {
		// The parallel scheduler, on 2 workers, must match the deterministic
		// one the loop runs, and is the sharded side of the speedup.
		par := runMachine(w.machineConfig(w.shards, true), app, p, tr, root)
		check("parallel-shards run", par)
		// One engine is the serial baseline of the sharded speedup; its
		// timing differs slightly, so its output is not compared.
		single := runMachine(w.machineConfig(0, false), app, p, tr, root)
		if single.err != nil {
			res.attempted++
			res.fail(fmt.Errorf("single-engine run: %w", single.err))
		} else if par.err == nil {
			x.serialSpeedup = float64(single.run) / float64(par.run)
		}
	}
	return x
}

// layerValues computes every per-layer metric from the loop's operations,
// the extras, the profile and the GC counters.
func layerValues(w *benchWorkload, ops []opResult, x extraResults, prof *profileSum, gc gcStats) map[string]float64 {
	v := map[string]float64{
		"sim.churn_ns_per_event":         x.churnNs,
		"sim.group.speedup_vs_serial":    x.serialSpeedup,
		"network.replay_ns_per_msg":      x.netNs,
		"cache.replay_ns_per_access":     x.cacheNs,
		"cache.replay_hit_ratio":         x.cacheHit,
		"directory.replay_ns_per_lookup": x.dirNs,
		"obs.overhead_ratio":             x.obsRatio,
		"obs.events":                     float64(x.obsEvents),
		"mcheck.successors_ns":           x.successorsNs,
		"mcheck.canon_ns":                x.canonNs,
	}
	for _, l := range layers {
		v[l+".self_share"] = prof.share(l)
	}
	if n := float64(len(ops)); n > 0 {
		v["gc.alloc_mb"] = gc.allocBytes / n / (1 << 20)
		v["gc.cycles"] = gc.cycles / n
		v["gc.pause_s"] = gc.pauseSec / n
	}
	if gc.cpuTotal > 0 {
		v["gc.cpu_share"] = gc.cpuGC / gc.cpuTotal
	}
	if len(ops) == 0 {
		return v
	}

	var build, nodeNew, nsPerEvent, wall []float64
	for _, r := range ops {
		build = append(build, r.build.Seconds())
		nodeNew = append(nodeNew, r.nodeNew.Seconds())
		wall = append(wall, r.wall.Seconds())
		if r.events > 0 {
			nsPerEvent = append(nsPerEvent, float64(r.run.Nanoseconds())/float64(r.events))
		}
	}
	// Busy threads: the workers an operation keeps running.
	if busy := sum(wall) * float64(w.workers); busy > 0 {
		v["recon.profile_coverage"] = prof.total / busy
	}

	r := ops[0] // counts repeat exactly for a seed
	if r.mres != nil {
		v["mcheck.states"] = float64(r.mres.States)
		v["mcheck.transitions"] = float64(r.mres.Transitions)
		if r.mres.Transitions > 0 {
			v["mcheck.dedup_ratio"] = float64(r.mres.DedupHits) / float64(r.mres.Transitions)
		}
		v["mcheck.peak_frontier"] = float64(r.mres.PeakFrontier)
		return v
	}

	v["workload.build_s"] = median(build)
	v["workload.ops"] = float64(r.builtOps)
	v["node.new_s"] = median(nodeNew)
	v["sim.events"] = float64(r.events)
	v["sim.ns_per_event"] = median(nsPerEvent)
	v["sim.cycles"] = float64(r.st.ExecCycles)
	if r.windows > 0 {
		v["sim.group.windows"] = float64(r.windows)
		v["sim.group.events_per_window"] = float64(r.events) / float64(r.windows)
	}
	st := r.st
	v["network.msgs"] = float64(st.TotalMessages())
	v["network.bytes"] = float64(st.TotalBytes())
	v["network.avg_hops"] = st.AvgHops()
	v["core.misses_local_rac"] = float64(st.RACMisses())
	v["core.misses_local_home"] = float64(st.LocalHomeMisses())
	v["core.misses_remote_2hop"] = float64(st.Remote2HopMisses())
	v["core.misses_remote_3hop"] = float64(st.Remote3HopMisses())
	v["core.nacks"] = float64(st.Nacks())
	v["core.retries"] = float64(st.Retries)
	v["core.delegations"] = float64(st.Delegations)
	v["core.undelegations"] = float64(st.TotalUndelegations())
	v["core.update_accuracy"] = st.UpdateAccuracy()
	v["rac.hits"] = float64(st.RACHits)
	v["protocol.adaptive_speedup_vs_mesi"] = r.speedup

	if len(r.cells) > 0 {
		var cellSum, longest, eff []float64
		for _, o := range ops {
			s, l := 0.0, 0.0
			for i := range o.cells {
				d := o.cells[i].wall().Seconds()
				s += d
				l = max(l, d)
			}
			cellSum = append(cellSum, s)
			longest = append(longest, l)
			eff = append(eff, s/(float64(w.workers)*o.wall.Seconds()))
		}
		v["runner.cells"] = float64(len(r.cells))
		v["runner.cell_s_sum"] = median(cellSum)
		v["runner.longest_cell_s"] = median(longest)
		v["runner.parallel_efficiency"] = median(eff)
	}
	return v
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// gcStats are Go runtime counters, summed over operations.
type gcStats struct {
	allocBytes, cycles, pauseSec float64
	cpuGC, cpuTotal              float64 // runtime/metrics CPU-time estimates
}

func (g *gcStats) add(d gcStats) {
	g.allocBytes += d.allocBytes
	g.cycles += d.cycles
	g.pauseSec += d.pauseSec
	g.cpuGC += d.cpuGC
	g.cpuTotal += d.cpuTotal
}

func (g gcStats) sub(o gcStats) gcStats {
	return gcStats{g.allocBytes - o.allocBytes, g.cycles - o.cycles, g.pauseSec - o.pauseSec,
		g.cpuGC - o.cpuGC, g.cpuTotal - o.cpuTotal}
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	g := gcStats{
		allocBytes: float64(ms.TotalAlloc),
		cycles:     float64(ms.NumGC),
		pauseSec:   float64(ms.PauseTotalNs) / 1e9,
	}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		g.cpuGC, g.cpuTotal = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return g
}

// printLayers prints the per-layer metrics as a tree: one branch per
// layer, heaviest self share first, the layer's metrics under it.
func printLayers(w io.Writer, ms map[string]metric) {
	groups := map[string][]string{}
	share := map[string]float64{}
	for name, m := range ms {
		g := name[:strings.IndexByte(name, '.')]
		groups[g] = append(groups[g], name)
		if strings.HasSuffix(name, ".self_share") {
			share[g] += m.Value
		}
	}
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Slice(names, func(i, j int) bool {
		if share[names[i]] != share[names[j]] {
			return share[names[i]] > share[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintln(w, "layers (by CPU self share)")
	for _, g := range names {
		fmt.Fprintf(w, "  %-10s %6.1f%%\n", g, 100*share[g])
		sort.Strings(groups[g])
		for _, n := range groups[g] {
			fmt.Fprintf(w, "    %-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
		}
	}
	top, topShare := "", -1.0
	for _, l := range layers {
		if s := ms[l+".self_share"].Value; s > topShare {
			top, topShare = l, s
		}
	}
	fmt.Fprintf(w, "top layer: %s (%.1f%% of sampled CPU)\n", top, 100*topShare)
}
