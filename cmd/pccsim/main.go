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
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"pccsim"
	"pccsim/internal/cli"
	"pccsim/internal/harness"
	"pccsim/internal/protocol"
	"pccsim/internal/workload"
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
	os.Exit(runMain(os.Args[1:]))
}

// runFlags binds the root command's run flags onto a RunSpec, default
// for default with a serve run job's body.
func runFlags(fs *flag.FlagSet) *harness.RunSpec {
	sp := &harness.RunSpec{}
	fs.StringVar(&sp.Workload, "workload", "em3d", "benchmark: "+strings.Join(pccsim.Workloads(), "|"))
	fs.StringVar(&sp.Protocol, "protocol", "", "coherence protocol: "+strings.Join(pccsim.Protocols(), "|")+" (default adaptive)")
	fs.IntVar(&sp.Nodes, "nodes", 16, "processor count (0 = 16)")
	fs.IntVar(&sp.Scale, "scale", 1, "problem-size multiplier (0 = 1)")
	fs.IntVar(&sp.Iters, "iters", 0, "iteration override (0 = workload default)")
	fs.IntVar(&sp.RAC, "rac", 0, "remote access cache size in bytes (0 = none)")
	fs.IntVar(&sp.Deledc, "deledc", 0, "delegate cache entries (0 = delegation off)")
	fs.BoolVar(&sp.Updates, "updates", false, "enable speculative updates")
	fs.Uint64Var(&sp.Delay, "delay", 50, "intervention delay in cycles (0 = 50)")
	sp.Hop = fs.Uint64("hop", 100, "network hop latency in cycles")
	fs.BoolVar(&sp.Check, "check", false, "enable runtime coherence invariant checks")
	fs.IntVar(&sp.Shards, "shards", 0, "engine shards (0 = single engine; >1 runs the parallel scheduler)")
	fs.BoolVar(&sp.Deterministic, "deterministic", false, "with -shards: serial round-robin shard scheduler")
	return sp
}

// runMain implements the root command: one run, one statistics report.
func runMain(args []string) int {
	fs := flag.NewFlagSet("pccsim", flag.ExitOnError)
	sp := runFlags(fs)
	traceN := fs.Int("trace", 0, "dump the last N coherence messages after the run")
	traceLine := fs.Uint64("trace-line", 0, "restrict tracing to one line address")
	if err := cli.Parse(fs, args); err != nil {
		fmt.Fprintln(os.Stderr, "pccsim:", err)
		return 2
	}
	cell, err := sp.Cell()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccsim:", err)
		if errors.Is(err, workload.ErrBadParams) {
			return 2
		}
		return 1
	}

	var rec *pccsim.TraceRecorder
	m, err := pccsim.New(cell.Cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccsim:", err)
		return 1
	}
	if *traceN > 0 {
		rec = m.Trace(*traceN, pccsim.Addr(*traceLine))
	}
	st, err := runOn(m, cell.Workload.Name, cell.Params)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccsim:", err)
		return 1
	}
	harness.WriteRunReport(os.Stdout, cell, st)
	if rec != nil {
		fmt.Printf("\n== last %d coherence messages (%d recorded) ==\n", *traceN, rec.Total())
		rec.Dump(os.Stdout)
		fmt.Println("\n== per-line stories ==")
		rec.DumpStories(os.Stdout)
	}
	return 0
}

// traceMain implements `pccsim trace`: one observed run, exported as
// Perfetto JSON. Unlike the root command, the machine defaults to the
// protocol's bake-off configuration (harness.CompareConfig), so under the
// default "adaptive" the mechanisms are ON — the trace exists to show the
// delegation lifecycle — and every other protocol runs the base machine.
// Mechanism flags given explicitly (on the command line or in -config)
// override that provisioning; delegation sizing under a protocol that
// does not delegate fails validation.
func traceMain(args []string) int {
	fs := flag.NewFlagSet("pccsim trace", flag.ExitOnError)
	wl := fs.String("workload", "em3d", "benchmark: "+strings.Join(pccsim.Workloads(), "|"))
	proto := fs.String("protocol", "", "coherence protocol: "+strings.Join(pccsim.Protocols(), "|")+" (default adaptive)")
	out := fs.String("out", "-", "output file (- = stdout)")
	nodes := fs.Int("nodes", 16, "processor count")
	scale := fs.Int("scale", 1, "problem-size multiplier")
	iters := fs.Int("iters", 0, "iteration override (0 = workload default)")
	racKB := fs.Int("rac-kb", 32, "remote access cache size in KB (0 = none; unset = the protocol's bake-off configuration)")
	deledc := fs.Int("deledc", 32, "delegate cache entries (0 = delegation off; unset = the protocol's bake-off configuration)")
	updates := fs.Bool("updates", true, "enable speculative updates (unset = the protocol's bake-off configuration)")
	delay := fs.Uint64("delay", 50, "intervention delay in cycles")
	window := fs.Int("window", 1<<18, "event-window capacity (-1 = retain everything)")
	shards := fs.Int("shards", 0, "engine shards (0 = single engine; >1 runs the parallel scheduler)")
	deterministic := fs.Bool("deterministic", false, "with -shards: serial round-robin shard scheduler")
	if err := cli.Parse(fs, args); err != nil {
		fmt.Fprintln(os.Stderr, "pccsim trace:", err)
		return 2
	}
	if err := (pccsim.WorkloadParams{Scale: *scale, Iters: *iters}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "pccsim trace:", err)
		return 2
	}

	p, err := protocol.Lookup(*proto)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccsim trace:", err)
		return 1
	}
	cfg := harness.CompareConfig(pccsim.DefaultConfig(), p)
	cfg.Nodes = *nodes
	cfg.InterventionDelay = pccsim.Time(*delay)
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "rac-kb":
			cfg.RACBytes = *racKB * 1024
		case "deledc":
			cfg.DelegateEntries = *deledc
		case "updates":
			cfg.EnableUpdates = *updates
		}
	})
	cfg.EnableUpdates = cfg.EnableUpdates && cfg.RACBytes > 0 && cfg.DelegateEntries > 0
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
	st, err := runOn(m, *wl, pccsim.WorkloadParams{Nodes: *nodes, Scale: *scale, Iters: *iters})
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
func runOn(m *pccsim.Machine, wl string, p pccsim.WorkloadParams) (*pccsim.Stats, error) {
	prog, err := pccsim.BuildWorkload(wl, p)
	if err != nil {
		return nil, err
	}
	return m.Run(prog)
}
