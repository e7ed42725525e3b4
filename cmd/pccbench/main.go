// Command pccbench regenerates the paper's evaluation: every table and
// figure, selected with -exp. See DESIGN.md for the experiment index.
//
//	pccbench -exp fig7                  # the headline comparison
//	pccbench -exp all -scale 2          # everything at double problem size
//	pccbench -exp all -parallel 8       # eight simulation workers
//	pccbench -exp all -progress         # per-cell progress on stderr
//	pccbench -config nightly.json       # flag defaults from a JSON file
//	pccbench -exp fig7 -trace-out t.json  # also export a Perfetto trace
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
	"sync/atomic"
	"time"

	"pccsim"
	"pccsim/internal/cli"
	"pccsim/internal/core"
	"pccsim/internal/harness"
	"pccsim/internal/protocol"
	"pccsim/internal/runner"
)

// csvExperiments lists the experiments with a CSV writer, in the
// experiment index's order.
var csvExperiments = []string{"table3", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "ablation", "compare"}

func main() {
	fs := flag.NewFlagSet("pccbench", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment: table1|table2|table3|fig7|fig8|fig9|fig10|fig11|fig12|ablation|extensions|related|compare|all")
	compare := fs.Bool("compare", false, "shorthand for -exp compare: the head-to-head protocol bake-off")
	nodes := fs.Int("nodes", 16, "processor count")
	scale := fs.Int("scale", 1, "workload problem-size multiplier")
	iters := fs.Int("iters", 0, "workload iteration override (0 = defaults)")
	parallel := fs.Int("parallel", 0, "simulation worker-pool size (0 = GOMAXPROCS)")
	shards := fs.Int("shards", 0, "engine shards per simulated machine (0 = single engine)")
	deterministic := fs.Bool("deterministic", false, "with -shards: serial round-robin shard scheduler (bit-for-bit reference mode)")
	progress := fs.Bool("progress", false, "report per-cell start/finish on stderr")
	format := fs.String("format", "table", "output format: table|csv|json (csv supports "+joinList(csvExperiments)+"; json runs everything)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	traceOut := fs.String("trace-out", "", "also run one observed cell and write a Perfetto trace to this file")
	traceWl := fs.String("trace-workload", "em3d", "workload of the observed cell (-trace-out)")
	protoName := fs.String("protocol", "", "coherence protocol of the observed cell (-trace-out), on its bake-off configuration (default adaptive)")
	if err := cli.Parse(fs, os.Args[1:]); err != nil {
		fail(err)
	}
	if *compare {
		*exp = "compare"
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

	if *traceOut != "" {
		if err := writeTrace(*traceOut, *traceWl, *protoName, *nodes, *scale, *iters); err != nil {
			fail(err)
		}
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
		var err error
		switch *exp {
		case "table3":
			var dist map[string][5]float64
			if dist, err = sess.Table3(); err == nil {
				err = harness.WriteTable3CSV(out, dist)
			}
		case "fig7":
			var rows []harness.Row
			if rows, err = sess.Fig7(); err == nil {
				err = harness.WriteFig7CSV(out, rows)
			}
		case "fig8":
			var rows []harness.Fig8Row
			if rows, err = sess.Fig8(); err == nil {
				err = harness.WriteFig8CSV(out, rows)
			}
		case "fig9":
			var rows []harness.Fig9Row
			if rows, err = sess.Fig9(); err == nil {
				err = harness.WriteFig9CSV(out, rows)
			}
		case "fig10":
			var rows []harness.Fig10Row
			if rows, err = sess.Fig10(); err == nil {
				err = harness.WriteFig10CSV(out, rows)
			}
		case "fig11":
			var rows []harness.SweepRow
			if rows, err = sess.Fig11(); err == nil {
				err = harness.WriteSweepCSV(out, rows)
			}
		case "fig12":
			var rows []harness.SweepRow
			if rows, err = sess.Fig12(); err == nil {
				err = harness.WriteSweepCSV(out, rows)
			}
		case "ablation":
			var rows []harness.AblationRow
			if rows, err = sess.Ablation(); err == nil {
				err = harness.WriteAblationCSV(out, rows)
			}
		case "compare":
			var rows []harness.CompareRow
			if rows, err = sess.Compare(); err == nil {
				err = harness.WriteCompareCSV(out, rows)
			}
		default:
			fmt.Fprintf(os.Stderr, "pccbench: no CSV writer for experiment %q; csv supports: %s\n",
				*exp, joinList(csvExperiments))
			os.Exit(2)
		}
		if err != nil {
			fail(err)
		}
		return
	case "table":
	default:
		fmt.Fprintf(os.Stderr, "pccbench: unknown format %q\n", *format)
		os.Exit(2)
	}

	run := func(name string) error {
		switch name {
		case "table1":
			fmt.Fprintln(out, "== Table 1: system configuration (large config shown) ==")
			cfg := core.DefaultConfig().With(core.WithRAC(1024), core.WithDelegation(1024), core.WithSpeculativeUpdates(0))
			cfg.Nodes = *nodes
			harness.PrintTable1(out, cfg)
		case "table2":
			fmt.Fprintln(out, "== Table 2: applications and data sets ==")
			harness.PrintTable2(out, opts)
		case "table3":
			dist, err := sess.Table3()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "== Table 3: number of consumers in producer-consumer patterns ==")
			harness.PrintTable3(out, dist)
		case "fig7":
			rows, err := sess.Fig7()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "== Figure 7: speedup, network messages, remote misses ==")
			harness.PrintFig7(out, rows)
		case "fig8":
			rows, err := sess.Fig8()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "== Figure 8: equal silicon area (smarter vs larger caches) ==")
			harness.PrintFig8(out, rows)
		case "fig9":
			rows, err := sess.Fig9()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "== Figure 9: sensitivity to intervention delay ==")
			harness.PrintFig9(out, rows)
		case "fig10":
			rows, err := sess.Fig10()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "== Figure 10: sensitivity to network hop latency (Appbt) ==")
			harness.PrintFig10(out, rows)
		case "fig11":
			rows, err := sess.Fig11()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "== Figure 11: sensitivity to delegate cache size (MG) ==")
			harness.PrintSweep(out, rows)
		case "fig12":
			rows, err := sess.Fig12()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "== Figure 12: sensitivity to RAC size (Appbt) ==")
			harness.PrintSweep(out, rows)
		case "ablation":
			rows, err := sess.Ablation()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "== Ablation: delegation-only vs delegation+updates (§3.2) ==")
			harness.PrintAblation(out, rows)
		case "extensions":
			rows, err := sess.Extensions()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "== §5 extensions: adaptive delay, 2-writer detector, accuracy bound ==")
			harness.PrintExtensions(out, rows)
		case "related":
			rows, err := sess.RelatedWork()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "== Related work: dynamic self-invalidation vs delegation+updates ==")
			harness.PrintRelated(out, rows)
		case "compare":
			rows, err := sess.Compare()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "== Protocol bake-off: every registered protocol, head to head ==")
			harness.PrintCompare(out, rows)
		default:
			fmt.Fprintf(os.Stderr, "pccbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Fprintln(out)
		return nil
	}

	if *exp == "all" {
		for _, e := range []string{"table1", "table2", "table3", "fig7", "fig8",
			"fig9", "fig10", "fig11", "fig12", "ablation", "extensions", "related", "compare"} {
			if err := run(e); err != nil {
				fail(err)
			}
		}
		return
	}
	if err := run(*exp); err != nil {
		fail(err)
	}
}

// writeTrace runs one observed cell — the named workload under the named
// protocol, on its bake-off configuration (harness.CompareConfig: the
// paper's 32K-RAC / 32-entry configuration for adaptive) — and
// exports its event stream as Perfetto JSON. The observed run is separate
// from the experiment cells, whose outputs stay byte-identical.
func writeTrace(path, workloadName, protoName string, nodes, scale, iters int) error {
	p, err := protocol.Lookup(protoName)
	if err != nil {
		return err
	}
	cfg := harness.CompareConfig(pccsim.DefaultConfig(), p)
	cfg.Nodes = nodes
	m, err := pccsim.New(cfg)
	if err != nil {
		return err
	}
	es := m.Observe(1 << 18)
	prog, err := pccsim.BuildWorkload(workloadName,
		pccsim.WorkloadParams{Nodes: nodes, Scale: scale, Iters: iters})
	if err != nil {
		return err
	}
	st, err := m.Run(prog)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := es.WritePerfetto(f); err != nil {
		return err
	}
	met := es.Metrics()
	fmt.Fprintf(os.Stderr, "pccbench: trace %s: %d events, %d msgs / %d bytes (stats: %d / %d) -> %s\n",
		workloadName, es.Total(), met.TotalMessages(), met.TotalBytes(),
		st.TotalMessages(), st.TotalBytes(), path)
	return f.Close()
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

func joinList(items []string) string {
	out := ""
	for i, s := range items {
		if i > 0 {
			out += ", "
		}
		out += s
	}
	return out
}
