// Command pccsim runs one benchmark on one machine configuration and
// prints the full statistics report.
//
//	pccsim -workload em3d -rac 32768 -deledc 32 -updates
//	pccsim -workload mg -nodes 16 -scale 2 -hop 200
//
// The trace subcommand runs one observed benchmark — mechanisms on by
// default — and writes its protocol event stream as Perfetto/Chrome
// trace-event JSON (open in ui.perfetto.dev):
//
//	pccsim trace -workload em3d > em3d.json
//	pccsim trace -workload em3d -out em3d.json -delay 100
//
// The serve subcommand turns the simulator into a multi-tenant job
// service (run/experiment/fuzz jobs over HTTP with memoized
// results and streaming progress), and submit is its thin client:
//
//	pccsim serve -addr :8344 -queue 64 -quota 8
//	pccsim submit -server http://127.0.0.1:8344 -json '{"workload":"em3d","nodes":16}'
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pccsim"
	"pccsim/internal/cli"
	"pccsim/internal/harness"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "trace":
			os.Exit(traceMain(os.Args[2:]))
		case "serve":
			os.Exit(serveMain(os.Args[2:]))
		case "submit":
			os.Exit(submitMain(os.Args[2:]))
		}
	}

	fs := flag.NewFlagSet("pccsim", flag.ExitOnError)
	wl := fs.String("workload", "em3d", "benchmark: "+strings.Join(pccsim.Workloads(), "|"))
	proto := fs.String("protocol", "", "coherence protocol: "+strings.Join(pccsim.Protocols(), "|")+" (default adaptive)")
	nodes := fs.Int("nodes", 16, "processor count")
	scale := fs.Int("scale", 1, "problem-size multiplier")
	iters := fs.Int("iters", 0, "iteration override (0 = workload default)")
	racB := fs.Int("rac", 0, "remote access cache size in bytes (0 = none)")
	deledc := fs.Int("deledc", 0, "delegate cache entries (0 = delegation off)")
	updates := fs.Bool("updates", false, "enable speculative updates")
	delay := fs.Uint64("delay", 50, "intervention delay in cycles")
	hop := fs.Uint64("hop", 100, "network hop latency in cycles")
	check := fs.Bool("check", false, "enable runtime coherence invariant checks")
	shards := fs.Int("shards", 0, "engine shards (0 = single engine; >1 runs the parallel scheduler)")
	deterministic := fs.Bool("deterministic", false, "with -shards: serial round-robin shard scheduler")
	traceN := fs.Int("trace", 0, "dump the last N coherence messages after the run")
	traceLine := fs.Uint64("trace-line", 0, "restrict tracing to one line address")
	if err := cli.Parse(fs, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pccsim:", err)
		os.Exit(2)
	}

	cfg := pccsim.DefaultConfig()
	cfg.Nodes = *nodes
	cfg.Protocol = *proto
	cfg.RACBytes = *racB
	cfg.DelegateEntries = *deledc
	cfg.EnableUpdates = *updates && *racB > 0 && *deledc > 0
	cfg.InterventionDelay = pccsim.Time(*delay)
	cfg.Network.HopLatency = pccsim.Time(*hop)
	cfg.CheckInvariants = *check
	if *deterministic {
		cfg = cfg.With(pccsim.WithDeterministicShards(*shards))
	} else {
		cfg = cfg.With(pccsim.WithShards(*shards))
	}

	var rec *pccsim.TraceRecorder
	var st *pccsim.Stats
	var err error
	if *traceN > 0 {
		var m *pccsim.Machine
		m, err = pccsim.New(cfg)
		if err == nil {
			rec = m.Trace(*traceN, pccsim.Addr(*traceLine))
			st, err = runOn(m, *wl, *nodes, *scale, *iters)
		}
	} else {
		st, err = pccsim.RunWorkload(cfg, *wl, pccsim.WorkloadParams{
			Nodes: *nodes, Scale: *scale, Iters: *iters,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccsim:", err)
		os.Exit(1)
	}
	harness.WriteRunReport(os.Stdout, *wl, *nodes, *scale, st)
	if rec != nil {
		fmt.Printf("\n== last %d coherence messages (%d recorded) ==\n", *traceN, rec.Total())
		rec.Dump(os.Stdout)
		fmt.Println("\n== per-line stories ==")
		rec.DumpStories(os.Stdout)
	}
}

// traceMain implements `pccsim trace`: one observed run, exported as
// Perfetto JSON. Unlike the root command, the mechanisms default ON —
// the trace exists to show the delegation lifecycle.
func traceMain(args []string) int {
	fs := flag.NewFlagSet("pccsim trace", flag.ExitOnError)
	wl := fs.String("workload", "em3d", "benchmark: "+strings.Join(pccsim.Workloads(), "|"))
	proto := fs.String("protocol", "", "coherence protocol: "+strings.Join(pccsim.Protocols(), "|")+" (default adaptive)")
	out := fs.String("out", "-", "output file (- = stdout)")
	nodes := fs.Int("nodes", 16, "processor count")
	scale := fs.Int("scale", 1, "problem-size multiplier")
	iters := fs.Int("iters", 0, "iteration override (0 = workload default)")
	racKB := fs.Int("rac-kb", 32, "remote access cache size in KB (0 = none)")
	deledc := fs.Int("deledc", 32, "delegate cache entries (0 = delegation off)")
	updates := fs.Bool("updates", true, "enable speculative updates")
	delay := fs.Uint64("delay", 50, "intervention delay in cycles")
	window := fs.Int("window", 1<<18, "event-window capacity (-1 = retain everything)")
	shards := fs.Int("shards", 0, "engine shards (0 = single engine; >1 runs the parallel scheduler)")
	deterministic := fs.Bool("deterministic", false, "with -shards: serial round-robin shard scheduler")
	if err := cli.Parse(fs, args); err != nil {
		fmt.Fprintln(os.Stderr, "pccsim trace:", err)
		return 2
	}

	cfg := pccsim.DefaultConfig()
	cfg.Nodes = *nodes
	cfg.Protocol = *proto
	cfg.RACBytes = *racKB * 1024
	cfg.DelegateEntries = *deledc
	cfg.EnableUpdates = *updates && *racKB > 0 && *deledc > 0
	cfg.InterventionDelay = pccsim.Time(*delay)
	if *deterministic {
		cfg = cfg.With(pccsim.WithDeterministicShards(*shards))
	} else {
		cfg = cfg.With(pccsim.WithShards(*shards))
	}

	m, err := pccsim.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccsim trace:", err)
		return 1
	}
	es := m.Observe(*window)
	st, err := runOn(m, *wl, *nodes, *scale, *iters)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccsim trace:", err)
		return 1
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pccsim trace:", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := es.WritePerfetto(w); err != nil {
		fmt.Fprintln(os.Stderr, "pccsim trace:", err)
		return 1
	}

	// Cross-check: the observer's per-class byte accounting must equal
	// the run's Stats traffic counters exactly — both count every packet
	// at network injection.
	met := es.Metrics()
	if met.TotalMessages() != st.TotalMessages() || met.TotalBytes() != st.TotalBytes() {
		fmt.Fprintf(os.Stderr, "pccsim trace: BUG: observer saw %d msgs / %d bytes, stats %d / %d\n",
			met.TotalMessages(), met.TotalBytes(), st.TotalMessages(), st.TotalBytes())
		return 1
	}
	fmt.Fprintf(os.Stderr,
		"pccsim trace: %s: %d events (%d retained), %d msgs / %d bytes (matches stats), %d delegations (%d complete), avg %.2f hops\n",
		*wl, es.Total(), len(es.Events()), met.TotalMessages(), met.TotalBytes(),
		met.Delegations, met.CompleteDelegations(), met.AvgHops())
	return 0
}

// runOn builds the workload and executes it on an existing machine (so an
// observer or tracer can be attached first).
func runOn(m *pccsim.Machine, wl string, nodes, scale, iters int) (*pccsim.Stats, error) {
	prog, err := pccsim.BuildWorkload(wl, pccsim.WorkloadParams{Nodes: nodes, Scale: scale, Iters: iters})
	if err != nil {
		return nil, err
	}
	return m.Run(prog)
}
