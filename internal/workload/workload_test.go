package workload

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"pccsim/internal/core"
	"pccsim/internal/cpu"
	"pccsim/internal/node"
)

func testParams(nodes int) Params { return Params{Nodes: nodes, Scale: 1} }

func TestAllSevenPresent(t *testing.T) {
	want := []string{"barnes", "ocean", "em3d", "lu", "cg", "mg", "appbt"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("All() returned %d workloads, want %d", len(all), len(want))
	}
	for i, w := range all {
		if w.Name != want[i] {
			t.Fatalf("workload %d = %q, want %q", i, w.Name, want[i])
		}
		if w.PaperSize == "" || w.OurSize(testParams(16)) == "" {
			t.Fatalf("%s lacks size descriptions", w.Name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("em3d"); !ok {
		t.Fatal("ByName(em3d) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) succeeded")
	}
}

// TestLookupSharesOneWorkload: the registry is built once, so every
// lookup of a name — serve looks a run job's workload up at submission
// and again at execution — returns the same *Workload.
func TestLookupSharesOneWorkload(t *testing.T) {
	for _, w := range All() {
		a, err := Lookup(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := ByName(w.Name)
		if a != w || b != w {
			t.Errorf("%s: Lookup, ByName and All give %p, %p, %p", w.Name, a, b, w)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	for _, p := range []Params{{}, {Scale: 2, Iters: 3}} {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v: %v", p, err)
		}
	}
	for _, p := range []Params{{Scale: -1}, {Iters: -3}} {
		if err := p.Validate(); !errors.Is(err, ErrBadParams) {
			t.Errorf("%+v: err = %v, want ErrBadParams", p, err)
		}
	}
}

func TestDeterministicBuilds(t *testing.T) {
	for _, w := range All() {
		a := w.Build(testParams(8))
		b := w.Build(testParams(8))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s builds are not deterministic", w.Name)
		}
	}
}

// Every stream must contain the same barrier IDs in the same order, or the
// program deadlocks.
func TestBarrierConsistency(t *testing.T) {
	for _, w := range All() {
		ops := w.Build(testParams(8))
		if len(ops) != 8 {
			t.Fatalf("%s built %d streams for 8 nodes", w.Name, len(ops))
		}
		barsOf := func(s []cpu.Op) []uint32 {
			var out []uint32
			for _, op := range s {
				if op.Kind == cpu.Barrier {
					out = append(out, op.Bar)
				}
			}
			return out
		}
		ref := barsOf(ops[0])
		if len(ref) == 0 {
			t.Fatalf("%s has no barriers", w.Name)
		}
		for n := 1; n < len(ops); n++ {
			if !reflect.DeepEqual(ref, barsOf(ops[n])) {
				t.Fatalf("%s: node %d's barrier sequence differs from node 0's", w.Name, n)
			}
		}
	}
}

func TestOpsAreLineAligned(t *testing.T) {
	for _, w := range All() {
		for _, stream := range w.Build(testParams(8)) {
			for _, op := range stream {
				if op.Kind == cpu.Load || op.Kind == cpu.Store {
					if op.Addr%32 != 0 {
						t.Fatalf("%s: unaligned address %#x", w.Name, uint64(op.Addr))
					}
				}
			}
		}
	}
}

// Integration: every workload runs to completion on both the baseline and
// the fully equipped machine with all invariants enabled, and finishes
// no slower with the mechanisms on.
func TestWorkloadsRunEndToEnd(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			nodes := 8
			ops := w.Build(testParams(nodes))
			streams := make([]cpu.Stream, nodes)
			for i := range streams {
				streams[i] = &cpu.SliceStream{Ops: ops[i]}
			}

			cfg := core.DefaultConfig()
			cfg.Nodes = nodes
			cfg.CheckInvariants = true
			base, err := node.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			baseStats, err := base.Run(streams)
			if err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			if baseStats.ExecCycles == 0 || baseStats.Loads == 0 {
				t.Fatal("baseline produced no work")
			}

			ops2 := w.Build(testParams(nodes))
			streams2 := make([]cpu.Stream, nodes)
			for i := range streams2 {
				streams2[i] = &cpu.SliceStream{Ops: ops2[i]}
			}
			mcfg := cfg.With(core.WithRAC(32), core.WithDelegation(32), core.WithSpeculativeUpdates(0))
			mach, err := node.New(mcfg)
			if err != nil {
				t.Fatal(err)
			}
			mechStats, err := mach.Run(streams2)
			if err != nil {
				t.Fatalf("mechanism run: %v", err)
			}
			mach.Sys.CheckAll()

			t.Logf("%s: base=%d cycles mech=%d cycles (speedup %.3f), remote %d -> %d",
				w.Name, baseStats.ExecCycles, mechStats.ExecCycles,
				float64(baseStats.ExecCycles)/float64(mechStats.ExecCycles),
				baseStats.RemoteMisses(), mechStats.RemoteMisses())
		})
	}
}

// The consumer-count distributions must qualitatively match Table 3.
func TestTable3Shapes(t *testing.T) {
	nodes := 16
	run := func(name string) [5]float64 {
		w, ok := ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		ops := w.Build(testParams(nodes))
		streams := make([]cpu.Stream, nodes)
		for i := range streams {
			streams[i] = &cpu.SliceStream{Ops: ops[i]}
		}
		cfg := core.DefaultConfig().With(core.WithRAC(32), core.WithDelegation(32), core.WithSpeculativeUpdates(0))
		cfg.Nodes = nodes
		m, err := node.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run(streams)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return st.ConsumerDistPercent()
	}

	if d := run("ocean"); d[0] < 60 {
		t.Errorf("ocean single-consumer share = %.1f%%, want dominant (paper: 97.7%%)", d[0])
	}
	if d := run("barnes"); d[4] < 40 {
		t.Errorf("barnes >4-consumer share = %.1f%%, want dominant (paper: 61.7%%)", d[4])
	}
	if d := run("lu"); d[0] < 60 {
		t.Errorf("lu single-consumer share = %.1f%%, want dominant (paper: 99.4%%)", d[0])
	}
	if d := run("appbt"); d[4] < 50 {
		t.Errorf("appbt >4-consumer share = %.1f%%, want dominant (paper: 91.6%%)", d[4])
	}
	if d := run("em3d"); d[0]+d[1] < 80 {
		t.Errorf("em3d 1-2 consumer share = %.1f%%, want dominant (paper: 100%%)", d[0]+d[1])
	}
}

func TestSyntheticValidation(t *testing.T) {
	bad := []SynthParams{
		{Nodes: 1, LinesPerProducer: 4, Consumers: 1, Iters: 1},
		{Nodes: 4, LinesPerProducer: 0, Consumers: 1, Iters: 1},
		{Nodes: 4, LinesPerProducer: 4, Consumers: 4, Iters: 1},
		{Nodes: 4, LinesPerProducer: 4, Consumers: 1, Iters: 1, RemoteHomeFraction: 1.5},
	}
	for i, p := range bad {
		if _, err := Synthetic(p); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
	if _, err := Synthetic(DefaultSynthParams(8)); err != nil {
		t.Fatalf("default params rejected: %v", err)
	}
}

func TestSyntheticRunsAndDelegates(t *testing.T) {
	p := DefaultSynthParams(8)
	p.RemoteHomeFraction = 1 // every line needs delegation
	ops, err := Synthetic(p)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]cpu.Stream, p.Nodes)
	for i := range streams {
		streams[i] = &cpu.SliceStream{Ops: ops[i]}
	}
	cfg := core.DefaultConfig().With(core.WithRAC(32), core.WithDelegation(32), core.WithSpeculativeUpdates(0))
	cfg.Nodes = p.Nodes
	cfg.CheckInvariants = true
	m, err := node.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	if st.Delegations == 0 {
		t.Fatal("fully remote-homed synthetic never delegated")
	}
	if st.UpdatesSent == 0 {
		t.Fatal("no updates")
	}
}

func TestSyntheticConsumerKnob(t *testing.T) {
	run := func(consumers int) [5]float64 {
		p := DefaultSynthParams(16)
		p.Consumers = consumers
		ops, err := Synthetic(p)
		if err != nil {
			t.Fatal(err)
		}
		streams := make([]cpu.Stream, p.Nodes)
		for i := range streams {
			streams[i] = &cpu.SliceStream{Ops: ops[i]}
		}
		cfg := core.DefaultConfig().With(core.WithRAC(32), core.WithDelegation(32), core.WithSpeculativeUpdates(0))
		m, err := node.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		return st.ConsumerDistPercent()
	}
	if d := run(1); d[0] < 90 {
		t.Errorf("1-consumer knob gave dist %v", d)
	}
	if d := run(6); d[4] < 90 {
		t.Errorf("6-consumer knob gave dist %v", d)
	}
}

// Simulations must be bit-for-bit deterministic: two identical runs give
// identical statistics.
func TestDeterministicSimulation(t *testing.T) {
	run := func() string {
		w, _ := ByName("em3d")
		ops := w.Build(testParams(8))
		streams := make([]cpu.Stream, 8)
		for i := range streams {
			streams[i] = &cpu.SliceStream{Ops: ops[i]}
		}
		cfg := core.DefaultConfig().With(core.WithRAC(32), core.WithDelegation(32), core.WithSpeculativeUpdates(0))
		cfg.Nodes = 8
		m, err := node.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d %d %d %d %d %d", st.ExecCycles, st.RemoteMisses(),
			st.TotalMessages(), st.TotalBytes(), st.UpdatesSent, st.Delegations)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic simulation:\n%s\n%s", a, b)
	}
}

// Property: every workload builds consistently at multiple scales and node
// counts: correct stream count, in-range node indices, nonzero work.
func TestWorkloadScalesAndNodeCounts(t *testing.T) {
	for _, w := range All() {
		for _, nodes := range []int{4, 16} {
			for _, scale := range []int{1, 2} {
				ops := w.Build(Params{Nodes: nodes, Scale: scale})
				if len(ops) != nodes {
					t.Fatalf("%s nodes=%d scale=%d: %d streams", w.Name, nodes, scale, len(ops))
				}
				total := 0
				for _, s := range ops {
					total += len(s)
				}
				if total == 0 {
					t.Fatalf("%s nodes=%d scale=%d: empty program", w.Name, nodes, scale)
				}
			}
		}
	}
}

// Scale must increase the working set (more ops).
func TestScaleGrowsWork(t *testing.T) {
	for _, w := range All() {
		count := func(scale int) int {
			n := 0
			for _, s := range w.Build(Params{Nodes: 8, Scale: scale}) {
				n += len(s)
			}
			return n
		}
		if count(2) <= count(1) {
			t.Errorf("%s: scale 2 not larger than scale 1", w.Name)
		}
	}
}
