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
	"pccsim/internal/core"
	"pccsim/internal/harness"
	"pccsim/internal/msg"
	"pccsim/internal/node"
	"pccsim/internal/obs"
	"pccsim/internal/protocol"
	"pccsim/internal/runner"
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
		return fail("pccsim", err)
	}

	var opts []node.Option
	var rec *obs.Sink
	if *traceN > 0 {
		sink := obs.NewSink(0)
		rec = sink.Recorder(*traceN, msg.Addr(*traceLine))
		opts = append(opts, node.WithSink(sink))
	}
	st, err := cell.Simulate(opts...)
	if err != nil {
		return fail("pccsim", err)
	}
	harness.WriteRunReport(os.Stdout, cell, st)
	if rec != nil {
		fmt.Printf("\n== last %d coherence messages (%d recorded) ==\n", *traceN, rec.Total())
		obs.DumpTimeline(os.Stdout, rec.Events())
		fmt.Println("\n== per-line stories ==")
		obs.DumpStories(os.Stdout, rec.Events())
	}
	return 0
}

// traceMain implements `pccsim trace`: one observed run, exported as
// Perfetto JSON. It takes the root command's run flags, but a mechanism
// flag (-rac, -deledc, -updates) not given on the command line or in
// -config takes the protocol's bake-off configuration
// (harness.CompareConfig): under the default "adaptive" the mechanisms
// are on — the trace exists to show the delegation lifecycle — and every
// other protocol runs the base machine. Delegation sizing given
// explicitly under a protocol that does not delegate fails validation.
func traceMain(args []string) int {
	fs := flag.NewFlagSet("pccsim trace", flag.ExitOnError)
	sp := runFlags(fs)
	out := fs.String("out", "-", "output file (- = stdout)")
	window := fs.Int("window", 1<<18, "event-window capacity (-1 = retain everything)")
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), `usage: pccsim trace [run flags] [-out FILE] [-window N]

Runs one observed simulation and writes its protocol event stream as
Perfetto JSON. The run flags are the root command's (-rac is in bytes).
-rac, -deledc and -updates left unset take the protocol's bake-off
configuration, the machine pccbench -exp compare runs.

`)
		fs.PrintDefaults()
	}
	if err := cli.Parse(fs, args); err != nil {
		fmt.Fprintln(os.Stderr, "pccsim trace:", err)
		return 2
	}
	cell, err := traceCell(fs, sp)
	if err != nil {
		return fail("pccsim trace", err)
	}
	sink := obs.NewSink(*window)
	st, err := cell.Simulate(node.WithSink(sink))
	if err != nil {
		return fail("pccsim trace", err)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return fail("pccsim trace", err)
		}
		defer f.Close()
		w = f
	}
	if err := obs.WritePerfetto(w, sink); err != nil {
		return fail("pccsim trace", err)
	}

	// Cross-check: the observer's per-class byte accounting must equal
	// the run's Stats traffic counters exactly — both count every packet
	// at network injection.
	met := &sink.M
	if met.TotalMessages() != st.TotalMessages() || met.TotalBytes() != st.TotalBytes() {
		fmt.Fprintf(os.Stderr, "pccsim trace: BUG: observer saw %d msgs / %d bytes, stats %d / %d\n",
			met.TotalMessages(), met.TotalBytes(), st.TotalMessages(), st.TotalBytes())
		return 1
	}
	fmt.Fprintf(os.Stderr,
		"pccsim trace: %s: %d events (%d retained), %d msgs / %d bytes (matches stats), %d delegations (%d complete), avg %.2f hops\n",
		cell.Workload.Name, sink.Total(), len(sink.Events()), met.TotalMessages(), met.TotalBytes(),
		met.Delegations, met.CompleteDelegations(), met.AvgHops())
	return 0
}

// traceCell resolves `pccsim trace`'s cell: the spec's protocol is looked
// up and named, and every mechanism flag fs did not see is filled from
// that protocol's bake-off configuration before RunSpec.Cell applies the
// remaining defaults.
func traceCell(fs *flag.FlagSet, sp *harness.RunSpec) (runner.Job, error) {
	p, err := protocol.Lookup(sp.Protocol)
	if err != nil {
		return runner.Job{}, err
	}
	sp.Protocol = p.Name()
	bake := harness.CompareConfig(core.DefaultConfig(), p)
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["rac"] {
		sp.RAC = bake.RACBytes
	}
	if !set["deledc"] {
		sp.Deledc = bake.DelegateEntries
	}
	if !set["updates"] {
		sp.Updates = bake.EnableUpdates
	}
	return sp.Cell()
}

// fail reports err under the command's name and returns its exit code:
// 2 for bad workload sizes, a usage error, and 1 for anything else.
func fail(cmd string, err error) int {
	fmt.Fprintln(os.Stderr, cmd+":", err)
	if errors.Is(err, workload.ErrBadParams) {
		return 2
	}
	return 1
}
