// Command pccverify reproduces the paper's §2.5 verification: exhaustive
// explicit-state reachability over an abstract model of the protocol (the
// Murphi role), checking the DASH-style invariants — single writer,
// directory consistency — plus data-value coherence and deadlock freedom;
// and a suite of litmus tests for per-location ordering. Exploration runs
// on the parallel work-stealing engine with canonical state hashing;
// verdicts and state counts are identical at any -workers value.
//
//	pccverify                  # litmus suite + base-protocol reachability
//	pccverify -deep            # the ROADMAP target: 4 nodes × 2 lines, delegation + updates
//	pccverify -full            # delegation+updates at the flag-specified bounds (slow)
//	pccverify -writes 3        # deeper value bound
//	pccverify -workers 4       # exploration worker count (0 = GOMAXPROCS)
//	pccverify -nodes 3 -queue 1 -det 1   # custom config (skips the standard suite)
//	pccverify ... -repro-dir D # emit counterexamples as replayable JSON into D
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pccsim/internal/fault"
	"pccsim/internal/mcheck"
)

func main() {
	full := flag.Bool("full", false, "run the full delegation+updates reachability (large)")
	deep := flag.Bool("deep", false, "run the 4-node x 2-line deep configuration")
	deepOnly := flag.Bool("deep-only", false, "run only the deep configuration (skip litmus + base reachability)")
	writes := flag.Int("writes", 2, "bound on writes (data versions)")
	issues := flag.Int("issues", 3, "bound on per-node request issues")
	workers := flag.Int("workers", 0, "exploration workers (0 = GOMAXPROCS)")
	maxStates := flag.Int("max-states", 0, "state-budget safety net (0 = unbounded; exceeding it fails)")
	nocanon := flag.Bool("nocanon", false, "disable symmetry reduction")
	nodes := flag.Int("nodes", 0, "custom config: node count (enables custom mode)")
	lines := flag.Int("lines", 0, "custom config: cache lines")
	queue := flag.Int("queue", 0, "custom config: per-channel queue depth")
	det := flag.Int("det", 0, "custom config: detector threshold")
	tot := flag.Int("tot", 0, "custom config: global issue budget (0 = unbounded)")
	reproDir := flag.String("repro-dir", "", "write counterexamples as replayable JSON into this directory")
	progress := flag.Bool("v", false, "print exploration progress")
	flag.Parse()

	// The base configuration the standard suite and custom mode start
	// from; a flag the model cannot represent exits 2 before any run.
	base := mcheck.DefaultConfig()
	base.MaxWrites = *writes
	base.MaxIssues = int8Flag("issues", *issues)
	usageIf(base.Validate())

	failed := false

	if *progress {
		mcheck.Progress = func(states, frontier, visited int) {
			fmt.Printf("  ... %dM states (frontier %d, visited %d)\n", states/1_000_000, frontier, visited)
		}
	}

	opt := mcheck.Options{Workers: *workers, NoCanon: *nocanon, MaxStates: *maxStates}

	run := func(label string, cfg mcheck.Config) {
		t0 := time.Now()
		res := mcheck.ExploreOpts(cfg, opt)
		el := time.Since(t0)
		status := "ok"
		if !res.Ok() {
			status = "FAIL"
			failed = true
		}
		rate := float64(res.States) / el.Seconds()
		dedup := 0.0
		if res.Transitions > 0 {
			dedup = float64(res.DedupHits) / float64(res.Transitions)
		}
		fmt.Printf("  %-28s %s in %v  %s\n", label, res, el.Round(time.Millisecond), status)
		fmt.Printf("    workers=%d states/s=%.0f dedup=%.3f peak-frontier=%d\n",
			res.Workers, rate, dedup, res.PeakFrontier)
		if res.Err != nil {
			fmt.Printf("    %v\n", res.Err)
		}
		for i, v := range res.Violations {
			if i >= 3 {
				break
			}
			fmt.Printf("    violation: %s\n      %s\n", v.Invariant, v.State)
		}
		for i, d := range res.Deadlocks {
			if i >= 3 {
				break
			}
			fmt.Printf("    deadlock: %s\n", d.State)
		}
		if *reproDir != "" && !res.Ok() {
			emitRepros(cfg, res, *reproDir)
		}
	}

	// Custom mode: explore exactly the flag-specified configuration. A
	// flag counts as given when it is set at all, so a zero or negative
	// value reaches the range checks instead of being ignored.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["nodes"] || set["lines"] || set["queue"] || set["det"] || set["tot"] {
		cfg := base
		if set["nodes"] {
			cfg.Nodes = *nodes
		}
		if set["lines"] {
			cfg.Lines = *lines
		}
		if set["queue"] {
			cfg.QueueDepth = *queue
		}
		if set["det"] {
			cfg.DetThresh = int8Flag("det", *det)
		}
		if set["tot"] {
			cfg.MaxTotalIssues = int8Flag("tot", *tot)
		}
		usageIf(cfg.Validate())
		fmt.Println("== custom reachability ==")
		run(fmt.Sprintf("%dn x %dl w=%d q=%d det=%d tot=%d", cfg.Nodes, cfg.Lines, cfg.MaxWrites, cfg.QueueDepth, cfg.DetThresh, cfg.MaxTotalIssues), cfg)
		if failed {
			os.Exit(1)
		}
		fmt.Println("all checks passed")
		return
	}

	if *deepOnly {
		fmt.Println("== deep reachability ==")
		run("deep: 4n x 2 lines", mcheck.DeepConfig())
		if failed {
			os.Exit(1)
		}
		fmt.Println("all checks passed")
		return
	}

	fmt.Println("== litmus tests (all interleavings, coherence ordering) ==")
	for _, f := range mcheck.StandardLitmusTests(opt) {
		res := f()
		status := "ok"
		if res.Err != nil {
			status = "FAIL: " + res.Err.Error()
			failed = true
		}
		fmt.Printf("  %-28s %8d states %5d outcomes  %s\n", res.Name, res.States, res.Outcomes, status)
	}

	fmt.Println("== exhaustive reachability ==")

	noDel := base
	noDel.Delegation = false
	run("base protocol", noDel)

	// Delegation needs DetThresh+1 same-producer writes to trigger; a
	// threshold of 1 reaches it within small write bounds.
	del := base
	del.DetThresh = 1
	if *full {
		run("delegation + updates", del)
	} else {
		del.MaxWrites = 2
		del.MaxIssues = 2
		run("delegation + updates (w=2,i=2)", del)
	}

	if *deep {
		run("deep: 4n x 2 lines", mcheck.DeepConfig())
	} else if !*full {
		fmt.Println("  (use -deep for the 4-node x 2-line target, -full for the flag-specified bounds)")
	}

	if failed {
		os.Exit(1)
	}
	fmt.Println("all checks passed")
}

// int8Flag returns the value of the int flag -name, which the model
// stores as an int8, exiting 2 when it does not fit.
func int8Flag(name string, v int) int8 {
	if v < 0 || v > math.MaxInt8 {
		usageIf(fmt.Errorf("invalid -%s %d: outside 0..%d", name, v, math.MaxInt8))
	}
	return int8(v)
}

// usageIf exits 2 with err's message when err is non-nil.
func usageIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccverify:", err)
		os.Exit(2)
	}
}

// emitRepros writes the result's counterexamples (already deterministically
// selected: lowest canonical state wins) as replayable corpus JSON.
func emitRepros(cfg mcheck.Config, res *mcheck.Result, dir string) {
	emit := func(kind string, v *mcheck.Violation, idx int) {
		trace := mcheck.TraceTo(cfg, v.State)
		if trace == nil && idx >= 0 {
			fmt.Printf("    repro: no trace reconstructed for %s #%d\n", kind, idx)
			return
		}
		c := fault.MCheckCase{
			Note: fmt.Sprintf("checker-emitted: %s under %dn x %dl (w=%d q=%d det=%d iss=%d tot=%d)",
				v.Invariant, cfg.Nodes, cfg.Lines, cfg.MaxWrites, cfg.QueueDepth, cfg.DetThresh, cfg.MaxIssues, cfg.MaxTotalIssues),
			Config:    cfg,
			Invariant: v.Invariant, Trace: trace,
		}
		cat := v.Invariant
		if i := strings.IndexAny(cat, " ("); i > 0 {
			cat = cat[:i]
		}
		cat = strings.ReplaceAll(cat, ":", "-")
		nl := cfg.Lines
		if nl <= 0 {
			nl = 1
		}
		name := fmt.Sprintf("%s-%dn%dl-q%d-%d.json", cat, cfg.Nodes, nl, cfg.QueueDepth, idx)
		path := filepath.Join(dir, name)
		if err := fault.WriteMCheckCase(path, c); err != nil {
			fmt.Fprintf(os.Stderr, "    repro: %v\n", err)
			return
		}
		if err := fault.ReplayMCheckCase(c); err != nil {
			fmt.Fprintf(os.Stderr, "    repro %s does NOT replay: %v\n", name, err)
			return
		}
		fmt.Printf("    repro written and replay-verified: %s (%d steps)\n", path, len(trace))
	}
	for i, v := range res.Violations {
		if i >= 2 {
			break
		}
		emit("violation", v, i)
	}
	for i, d := range res.Deadlocks {
		if i >= 2 {
			break
		}
		emit("deadlock", d, i)
	}
}
