package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one metric as BENCHMARK.json lists it. Better and
// bound apply to end-to-end metrics only.
type metricDef struct {
	name, unit string
	better     string
	bound      float64
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Each is defined on every workload and never zero.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "work_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "max_rss_mb", unit: "MB", better: "lower", bound: 0.1},
}

// loopHooks wrap each operation of the traced run.
type loopHooks struct {
	before func()
	after  func(r *opResult)
}

// runOps runs operations of w back to back, one client in a closed loop,
// until seconds have passed; at least one always runs. The first
// operation of a process is a warm-up whose output is checked but whose
// timings are dropped: it runs on memory fresh from the kernel, which
// later operations, like every simulation after the first in a
// long-running process, must zero again. Each operation
// starts from a collected, scavenged heap with the process's peak-RSS
// counter reset, so its memory peak and its garbage collections are its
// own. An operation fails on an error, a
// panic, or an output that differs from the first good one of the run:
// every operation of a run uses the same seed, so every output must be
// identical.
func runOps(w *benchWorkload, e *env, seconds float64, tr *tracer, hooks *loopHooks) ([]opResult, *result) {
	res := &result{}
	var good []opResult
	start := time.Now()
	for res.attempted == 0 || time.Since(start).Seconds() < seconds {
		runtime.GC()
		debug.FreeOSMemory()
		resetPeakRSS()
		if hooks != nil {
			hooks.before()
		}
		r := w.op(e, tr)
		if hooks != nil {
			hooks.after(&r)
		}
		r.rssMB = peakRSSMB()
		res.attempted++
		switch {
		case r.err != nil:
			res.fail(fmt.Errorf("op %d: %w", res.attempted, r.err))
		case len(good) > 0 && r.digest != good[0].digest:
			res.fail(fmt.Errorf("op %d: output digest %s, the run's first output was %s",
				res.attempted, r.digest, good[0].digest))
		default:
			good = append(good, r)
		}
	}
	if len(good) > 1 {
		good = good[1:]
	}
	return good, res
}

// measure is the untraced run: it reports the end-to-end metrics.
func measure(w *benchWorkload, e *env, seconds float64, out io.Writer) *result {
	ops, res := runOps(w, e, seconds, nil, nil)
	res.metrics = endToEndMetrics(ops)
	sim := simulatedMetrics(w, ops, res)

	host := hostOf(w, e.seed, false)
	fmt.Fprintf(out, "perfbench %s seed=%d: %d ops, %d failed (nproc %d, GOMAXPROCS %d, %d workers, %s)\n",
		w.name, e.seed, res.attempted, res.failed, host.NumCPU, host.GOMAXPROCS, host.Workers, host.GoVersion)
	fmt.Fprintf(out, "end-to-end, host (%d timed ops; times at their fast quartile, memory at its median):\n", len(ops))
	printMetrics(out, "  ", res.metrics)
	printSpread(out, ops)
	fmt.Fprintln(out, "end-to-end, simulated (deterministic per seed; the model is unvalidated against hardware, so no error figure):")
	printMetrics(out, "  ", sim)
	writeRecord(out, host, res, sim)
	return res
}

// printSpread prints the quartiles of the per-op wall and setup times,
// so a run's own noise is visible beside its medians.
func printSpread(w io.Writer, ops []opResult) {
	var wall, setup []float64
	for _, r := range ops {
		wall = append(wall, r.wall.Seconds())
		setup = append(setup, r.setup.Seconds())
	}
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"wall_s", wall}, {"setup_s", setup}} {
		q := quartiles(s.xs)
		fmt.Fprintf(w, "  %s per op: min %.4g  q1 %.4g  median %.4g  q3 %.4g  max %.4g  (n=%d)\n",
			s.name, q[0], q[1], q[2], q[3], q[4], len(s.xs))
	}
}

// endToEndMetrics reduces a run's operations to its end-to-end metrics.
// Every operation of a run does identical work, and a shared host only
// ever adds time to one, in stretches that last seconds. So each time is
// the first quartile over the operations, and the throughput the third
// quartile: the fast quarter is the program's own cost, and up to three
// quarters of a run can be slowed by the host without moving it. Memory
// is not slowed by the host; it is the median.
func endToEndMetrics(ops []opResult) map[string]metric {
	var setup, wall, rate, rss []float64
	for _, r := range ops {
		setup = append(setup, r.setup.Seconds())
		wall = append(wall, r.wall.Seconds())
		if r.run > 0 {
			rate = append(rate, r.work/r.run.Seconds())
		}
		rss = append(rss, r.rssMB)
	}
	vals := map[string]float64{
		"setup_s":    quantile(setup, 0.25),
		"wall_s":     quantile(wall, 0.25),
		"work_per_s": quantile(rate, 0.75),
		"max_rss_mb": median(rss),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, d := range endToEnd {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}

// simulatedMetrics are the end-to-end numbers of the modelled machine.
// They repeat exactly for a seed, so they sit in the run's record, not in
// the timed metrics. fail_ratio counts every failed operation.
func simulatedMetrics(w *benchWorkload, ops []opResult, res *result) map[string]metric {
	out := map[string]metric{
		"fail_ratio": {float64(res.failed) / float64(res.attempted), "ratio"},
	}
	if len(ops) == 0 {
		return out
	}
	r := ops[0]
	if w.kind == mcheckOp {
		out["states_per_s"] = metric{r.work / r.run.Seconds(), "1/s"}
		return out
	}
	out["sim_ops_per_s"] = metric{r.work / r.run.Seconds(), "1/s"}
	out["sim_cycles"] = metric{float64(r.st.ExecCycles), "cycles"}
	out["sim_net_bytes"] = metric{float64(r.st.TotalBytes()), "B"}
	if w.kind == bakeoffOp {
		out["adaptive_speedup_vs_mesi"] = metric{r.speedup, "ratio"}
	}
	return out
}

// resetPeakRSS resets the kernel's resident-memory high-water mark of
// this process (VmHWM) to its current resident size.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // without it, peaks are the process's so far
}

// peakRSSMB is the process's peak resident memory since the last
// resetPeakRSS, from VmHWM in /proc/self/status, or since the process
// started where that is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the p-quantile of xs, interpolated linearly between the two
// nearest ranks.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i == len(s)-1 {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quartiles returns min, first quartile, median, third quartile and max.
func quartiles(xs []float64) [5]float64 {
	if len(xs) == 0 {
		return [5]float64{}
	}
	return [5]float64{quantile(xs, 0), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 1)}
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
