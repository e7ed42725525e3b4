// Command pccbench regenerates the paper's evaluation: every table and
// figure, selected with -exp. See DESIGN.md for the experiment index.
//
//	pccbench -exp fig7                  # the headline comparison
//	pccbench -exp all -scale 2          # everything at double problem size
//	pccbench -exp all -parallel 8       # eight simulation workers
//	pccbench -exp all -progress         # per-cell progress on stderr
//	pccbench -config nightly.json       # flag defaults from a JSON file
//	pccbench -exp compare -format csv   # the protocol bake-off as CSV
//
// The experiments are harness.Experiments, in that order; `pccsim trace`
// exports one observed cell as a Perfetto trace.
//
// Independent simulation cells run concurrently on a worker pool
// (default GOMAXPROCS; -parallel overrides) and identical cells recurring
// across figures are simulated once per invocation. Output is
// byte-identical at any worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"pccsim/internal/cli"
	"pccsim/internal/harness"
	"pccsim/internal/runner"
	"pccsim/internal/workload"
)

func main() {
	fs := flag.NewFlagSet("pccbench", flag.ExitOnError)
	csvNames := strings.Join(harness.ExperimentNames(true), ", ")
	exp := fs.String("exp", "all", "experiment: "+strings.Join(harness.ExperimentNames(false), "|")+"|all")
	nodes := fs.Int("nodes", 16, "processor count")
	scale := fs.Int("scale", 1, "workload problem-size multiplier")
	iters := fs.Int("iters", 0, "workload iteration override (0 = defaults)")
	parallel := fs.Int("parallel", 0, "simulation worker-pool size (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, "engine shards per simulated machine (0 = single engine)")
	deterministic := fs.Bool("deterministic", false, "with -shards: serial round-robin shard scheduler (bit-for-bit reference mode)")
	progress := fs.Bool("progress", false, "report per-cell start/finish on stderr")
	format := fs.String("format", "table", "output format: table|csv|json (csv supports "+csvNames+"; json runs everything)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := cli.Parse(fs, os.Args[1:]); err != nil {
		fail(err)
	}
	if err := (workload.Params{Scale: *scale, Iters: *iters}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "pccbench:", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC() // flush accumulated allocation stats
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fail(err)
			}
		}()
	}

	opts := harness.Options{
		Nodes: *nodes, Scale: *scale, Iters: *iters, Parallel: *parallel,
		Shards: *shards, Deterministic: *deterministic,
	}
	if *progress {
		opts.Progress = progressPrinter()
	}
	out := os.Stdout
	sess := harness.NewSession(opts)

	switch *format {
	case "json":
		rep, err := harness.RunAll(opts)
		if err != nil {
			fail(err)
		}
		if err := rep.WriteJSON(out); err != nil {
			fail(err)
		}
		return
	case "csv":
		e, ok := harness.LookupExperiment(*exp)
		if !ok || !e.HasCSV() {
			fmt.Fprintf(os.Stderr, "pccbench: no CSV writer for experiment %q; csv supports: %s\n", *exp, csvNames)
			os.Exit(2)
		}
		if err := e.WriteCSV(out, sess); err != nil {
			fail(err)
		}
		return
	case "table":
	default:
		fmt.Fprintf(os.Stderr, "pccbench: unknown format %q\n", *format)
		os.Exit(2)
	}

	exps := harness.Experiments()
	if *exp != "all" {
		e, ok := harness.LookupExperiment(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "pccbench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		exps = []harness.Experiment{e}
	}
	for _, e := range exps {
		if err := e.WriteTable(out, sess); err != nil {
			fail(err)
		}
	}
}

// progressPrinter reports cell lifecycle events on stderr. It is called
// from multiple simulation workers; each event prints as one atomic line.
func progressPrinter() runner.ProgressFunc {
	var seq atomic.Uint64
	return func(ev runner.Event) {
		n := seq.Add(1)
		switch {
		case ev.Err != nil:
			fmt.Fprintf(os.Stderr, "[%4d] %-40s FAILED: %v\n", n, ev.Label, ev.Err)
		case ev.Cached:
			fmt.Fprintf(os.Stderr, "[%4d] %-40s cached\n", n, ev.Label)
		case ev.Done:
			fmt.Fprintf(os.Stderr, "[%4d] %-40s done: %d events in %v\n",
				n, ev.Label, ev.Events, ev.Wall.Round(time.Millisecond))
		default:
			fmt.Fprintf(os.Stderr, "[%4d] %-40s start\n", n, ev.Label)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "pccbench:", err)
	os.Exit(1)
}
