package harness

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"pccsim/internal/core"
	"pccsim/internal/protocol"
	"pccsim/internal/runner"
	"pccsim/internal/workload"
)

// tiny keeps harness tests fast: few nodes, minimal iterations.
func tiny() Options { return Options{Nodes: 8, Scale: 1, Iters: 2} }

func TestFig7ConfigsShape(t *testing.T) {
	specs := Fig7Configs()
	if len(specs) != 6 {
		t.Fatalf("Fig7 has %d configs, want 6", len(specs))
	}
	if specs[0].RAC != 0 || specs[0].Deledc != 0 {
		t.Fatal("first config must be the baseline")
	}
	base := core.DefaultConfig()
	for _, s := range specs {
		cfg := s.Apply(base)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Label, err)
		}
	}
}

func TestRunOneWorkload(t *testing.T) {
	wl, _ := workload.ByName("ocean")
	cfg := core.DefaultConfig()
	cfg.Nodes = 8
	st := MustRun(cfg, wl, workload.Params{Nodes: 8, Iters: 2})
	if st.ExecCycles == 0 || st.Loads == 0 {
		t.Fatal("empty run")
	}
}

func TestFig7RowsComplete(t *testing.T) {
	rows, err := NewSession(tiny()).Fig7()
	if err != nil {
		t.Fatal(err)
	}
	want := 7 * 6 // apps x configs
	if len(rows) != want {
		t.Fatalf("Fig7 produced %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Config == "Base" && math.Abs(r.Speedup-1) > 1e-9 {
			t.Fatalf("%s baseline speedup = %f, want 1", r.App, r.Speedup)
		}
		if r.Speedup <= 0 {
			t.Fatalf("%s/%s: non-positive speedup", r.App, r.Config)
		}
	}
	// Mechanisms must help overall even at tiny scale.
	if g := GeoMeanSpeedup(rows, "1K-entry deledc & 1M RAC"); g <= 1.0 {
		t.Fatalf("large config geo-mean speedup %f <= 1", g)
	}
	// Printing must not panic and must mention every app.
	var buf bytes.Buffer
	PrintFig7(&buf, rows)
	for _, wl := range workload.All() {
		if !bytes.Contains(buf.Bytes(), []byte(wl.Name)) {
			t.Fatalf("Fig7 output lacks %s", wl.Name)
		}
	}
}

func TestTable3Rows(t *testing.T) {
	dist, err := NewSession(tiny()).Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != 7 {
		t.Fatalf("Table3 has %d rows", len(dist))
	}
	var buf bytes.Buffer
	PrintTable3(&buf, dist)
	if buf.Len() == 0 {
		t.Fatal("empty Table3 output")
	}
}

func TestFig9NormalizedToFirst(t *testing.T) {
	opts := tiny()
	rows, err := NewSession(opts).Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7*len(Fig9Delays()) {
		t.Fatalf("Fig9 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Delay == "5" && math.Abs(r.Normalized-1) > 1e-9 {
			t.Fatalf("%s: 5-cycle point not normalized to 1", r.App)
		}
	}
	var buf bytes.Buffer
	PrintFig9(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty Fig9 output")
	}
}

func TestFig10HopScaling(t *testing.T) {
	rows, err := NewSession(tiny()).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Fig10 rows = %d, want 4", len(rows))
	}
	// Execution time must grow with hop latency (the paper: "every time
	// network hop latency doubles, execution time nearly doubles").
	for i := 1; i < len(rows); i++ {
		if rows[i].BaseCycles <= rows[i-1].BaseCycles {
			t.Fatalf("base cycles not increasing with hop latency: %+v", rows)
		}
	}
	var buf bytes.Buffer
	PrintFig10(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty Fig10 output")
	}
}

func TestFig11And12Sweeps(t *testing.T) {
	r11, err := NewSession(tiny()).Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(r11) != 8 {
		t.Fatalf("Fig11 rows = %d, want 8", len(r11))
	}
	r12, err := NewSession(tiny()).Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if len(r12) != 8 {
		t.Fatalf("Fig12 rows = %d, want 8", len(r12))
	}
	var buf bytes.Buffer
	PrintSweep(&buf, r11)
	PrintSweep(&buf, r12)
	if buf.Len() == 0 {
		t.Fatal("empty sweep output")
	}
}

func TestAblationDelegationOnlyNearBaseline(t *testing.T) {
	rows, err := NewSession(Options{Nodes: 16, Scale: 1}).Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("ablation rows = %d", len(rows))
	}
	for _, r := range rows {
		// §3.2: delegation-only performs within ~1% of the baseline
		// (we allow 3% at our scaled-down sizes).
		if r.DelegSpeedup < 0.97 || r.DelegSpeedup > 1.03 {
			t.Errorf("%s: delegation-only speedup %.3f outside [0.97, 1.03]",
				r.App, r.DelegSpeedup)
		}
		if r.FullSpeedup < r.DelegSpeedup-0.02 {
			t.Errorf("%s: updates made things worse: %.3f < %.3f",
				r.App, r.FullSpeedup, r.DelegSpeedup)
		}
	}
	var buf bytes.Buffer
	PrintAblation(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty ablation output")
	}
}

func TestFig8EqualArea(t *testing.T) {
	rows, err := NewSession(tiny()).Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7*3 {
		t.Fatalf("Fig8 rows = %d", len(rows))
	}
	var buf bytes.Buffer
	PrintFig8(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty Fig8 output")
	}
}

func TestPrintTables(t *testing.T) {
	var buf bytes.Buffer
	PrintTable1(&buf, core.DefaultConfig())
	PrintTable2(&buf, tiny())
	if buf.Len() == 0 {
		t.Fatal("empty table output")
	}
}

func TestGeoMeanAndMeanRatio(t *testing.T) {
	rows := []Row{
		{Config: "x", Speedup: 2, MsgRatio: 0.5},
		{Config: "x", Speedup: 0.5, MsgRatio: 1.5},
		{Config: "y", Speedup: 3, MsgRatio: 1},
	}
	if g := GeoMeanSpeedup(rows, "x"); math.Abs(g-1) > 1e-9 {
		t.Fatalf("geomean = %f, want 1", g)
	}
	if m := MeanRatio(rows, "x", func(r Row) float64 { return r.MsgRatio }); math.Abs(m-1) > 1e-9 {
		t.Fatalf("mean = %f, want 1", m)
	}
	if g := GeoMeanSpeedup(rows, "none"); g != 0 {
		t.Fatalf("geomean of empty selection = %f", g)
	}
}

func TestExtensionsRows(t *testing.T) {
	rows, err := NewSession(tiny()).Extensions()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("extensions rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Fixed <= 0 || r.Adaptive <= 0 || r.Pair <= 0 {
			t.Fatalf("%s: non-positive speedup %+v", r.App, r)
		}
		if r.Accuracy > 0 && r.Bound < 1 {
			t.Fatalf("%s: bound %f below 1", r.App, r.Bound)
		}
	}
	var buf bytes.Buffer
	PrintExtensions(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty extensions output")
	}
}

func TestAccuracyBound(t *testing.T) {
	if got := AccuracyBound(0); got != 1 {
		t.Fatalf("bound(0) = %f", got)
	}
	if got := AccuracyBound(0.5); math.Abs(got-2) > 1e-9 {
		t.Fatalf("bound(0.5) = %f", got)
	}
	if got := AccuracyBound(-1); got != 1 {
		t.Fatalf("bound(-1) = %f", got)
	}
	if !math.IsInf(AccuracyBound(1), 1) {
		t.Fatal("bound(1) not infinite")
	}
}

func TestRelatedWorkContrast(t *testing.T) {
	rows, err := NewSession(Options{Nodes: 16, Scale: 1}).RelatedWork()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("related rows = %d", len(rows))
	}
	for _, r := range rows {
		// Self-invalidation may only ever reduce 3-hop misses...
		if r.DSI3Hop > r.Base3Hop {
			t.Errorf("%s: DSI increased 3-hop misses %d -> %d", r.App, r.Base3Hop, r.DSI3Hop)
		}
		// ...and never produces local hits; only updates do.
		if r.DSILocal != 0 {
			t.Errorf("%s: DSI produced %d local hits", r.App, r.DSILocal)
		}
		// Updates must dominate DSI on every app (the paper's thesis).
		if r.DelegUpd < r.SelfInval-0.01 {
			t.Errorf("%s: updates (%.3f) lost to self-invalidation (%.3f)",
				r.App, r.DelegUpd, r.SelfInval)
		}
	}
	var buf bytes.Buffer
	PrintRelated(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty related output")
	}
}

// TestSessionWithContext pins the cancel plumbing the serve layer relies
// on: a session batch under a cancelled context fails with the context
// error instead of simulating, and the underlying session is untouched —
// a live-context retry on the same session runs normally.
func TestSessionWithContext(t *testing.T) {
	s := NewSession(tiny())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.WithContext(ctx).Fig10(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled session batch returned %v, want context.Canceled", err)
	}
	if got := s.Cells(); got != 0 {
		t.Fatalf("cancelled batch simulated %d cells, want 0", got)
	}
	rows, err := s.WithContext(context.Background()).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || s.Cells() == 0 {
		t.Fatal("live-context retry on the same session did not simulate")
	}
}

// TestProtocolTripwire pins every registered protocol's exact simulated
// cycles and engine events on em3d (16 nodes, scale 8) under its bake-off
// configuration. The simulation is deterministic, so any drift means a
// protocol's behaviour changed; em3d is the clearest producer-consumer
// pattern, which puts every protocol's own machinery (delegation, pushed
// updates, self-invalidation) on the pinned path. A registered protocol
// missing from the table fails, so adding one forces pinning it.
func TestProtocolTripwire(t *testing.T) {
	want := map[string]struct{ cycles, events uint64 }{
		"adaptive": {621_986, 850_965},
		"dsi":      {1_165_833, 928_435},
		"hybrid":   {578_868, 804_505},
		"mesi":     {1_165_833, 928_435},
	}
	wl, err := workload.Lookup("em3d")
	if err != nil {
		t.Fatal(err)
	}
	base := core.DefaultConfig()
	for _, p := range protocol.All() {
		var events uint64
		r := runner.New(1, func(ev runner.Event) {
			if ev.Done && ev.Err == nil {
				events = ev.Events
			}
		})
		res, err := r.Run([]runner.Job{{
			Label: "tripwire/" + p.Name(), Cfg: CompareConfig(base, p), Workload: wl,
			Params: workload.Params{Nodes: base.Nodes, Scale: 8},
		}})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		w, ok := want[p.Name()]
		if !ok {
			t.Errorf("%s: registered protocol has no pinned counts (got %d cycles, %d events)",
				p.Name(), res[0].ExecCycles, events)
			continue
		}
		if res[0].ExecCycles != w.cycles || events != w.events {
			t.Errorf("%s: %d cycles, %d events; want %d, %d",
				p.Name(), res[0].ExecCycles, events, w.cycles, w.events)
		}
	}
}
