package mcheck

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// TestEncodeDecodeRoundTrip drives the model a few steps and checks the
// canonical byte encoding inverts exactly.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), DeepConfig()} {
		st := NewState(cfg)
		for depth := 0; depth < 6; depth++ {
			enc := st.Encode(nil)
			rt := DecodeState(cfg, enc)
			if !bytes.Equal(rt.Encode(nil), enc) {
				t.Fatalf("round-trip mismatch at depth %d: %s vs %s", depth, st, rt)
			}
			if rt.String() != st.String() {
				t.Fatalf("decoded state renders differently: %s vs %s", rt, st)
			}
			succs := Successors(cfg, st)
			if len(succs) == 0 {
				break
			}
			st = succs[depth%len(succs)].State
		}
	}
}

// TestEncodeDecodeRoundTripLitmus covers the PC/Obs tail of the encoding.
func TestEncodeDecodeRoundTripLitmus(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scripts = StandardLitmusShapes()[0].Scripts
	st := NewState(cfg)
	for depth := 0; depth < 8; depth++ {
		enc := st.Encode(nil)
		rt := DecodeState(cfg, enc)
		if !bytes.Equal(rt.Encode(nil), enc) {
			t.Fatalf("litmus round-trip mismatch at depth %d", depth)
		}
		if !reflect.DeepEqual(rt.PC, st.PC) || !reflect.DeepEqual(rt.Obs, st.Obs) {
			t.Fatalf("litmus bookkeeping mismatch: PC %v/%v Obs %v/%v", rt.PC, st.PC, rt.Obs, st.Obs)
		}
		succs := Successors(cfg, st)
		if len(succs) == 0 {
			break
		}
		st = succs[depth%len(succs)].State
	}
}

// TestCanonicalLineSymmetry: two states differing only by a line swap must
// canonicalize identically.
func TestCanonicalLineSymmetry(t *testing.T) {
	cfg := BenchConfig()
	a := NewState(cfg)
	a.node(0, 1).Cache = CE
	a.node(0, 1).Val = 1
	a.H[0].Dir = DE
	a.H[0].Owner = 1
	a.Latest[0] = 1

	b := NewState(cfg)
	b.node(1, 1).Cache = CE
	b.node(1, 1).Val = 1
	b.H[1].Dir = DE
	b.H[1].Owner = 1
	b.Latest[1] = 1

	if a.Key() == b.Key() {
		t.Fatal("plain keys should differ")
	}
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatal("line-symmetric states have different canonical keys")
	}
}

// TestParallelMatchesSerial: with symmetry reduction off, the parallel
// engine must reproduce the serial map-based checker's numbers exactly —
// same reachable set, transitions, dedup hits, delegation count, queue
// peak — at every worker count.
func TestParallelMatchesSerial(t *testing.T) {
	for _, cfg := range []Config{
		// 2 nodes, delegation reachable: the delegated paths at a size
		// -race can afford.
		{Nodes: 2, MaxWrites: 2, QueueDepth: 2, Delegation: true, DetThresh: 1, MaxIssues: 2},
		// 3 nodes × 2 lines: cross-line channel interleavings.
		{Nodes: 3, Lines: 2, MaxWrites: 2, QueueDepth: 2, Delegation: true, DetThresh: 1, MaxIssues: 1},
	} {
		want := exploreSerial(cfg)
		for _, workers := range []int{1, 2, 4} {
			got := ExploreOpts(cfg, Options{Workers: workers, NoCanon: true})
			if got.States != want.States || got.Transitions != want.Transitions ||
				got.DedupHits != want.DedupHits || got.Delegated != want.Delegated ||
				got.MaxQueue != want.MaxQueue || !got.Ok() {
				t.Fatalf("workers=%d: %+v != serial %+v", workers, got, want)
			}
		}
	}
}

// TestBenchConfigCounts pins BenchConfig's exploration exactly. The
// engine without symmetry reduction at 2 workers and the serial map-based
// checker must both reach the full space; the canonical engine must reach
// its symmetry-reduced quotient. A rule change that moves any count
// changes what the checker explores and must update these numbers
// deliberately. The serial leg adds about 50 s under the race detector,
// whose target is the parallel engine, so it runs only without it.
func TestBenchConfigCounts(t *testing.T) {
	cfg := BenchConfig()
	check := func(name string, r *Result, states, transitions int) {
		t.Helper()
		if r.States != states || r.Transitions != transitions || !r.Ok() {
			t.Errorf("%s: %d states, %d transitions, ok=%v; want %d, %d, ok",
				name, r.States, r.Transitions, r.Ok(), states, transitions)
		}
	}
	check("engine, 2 workers, no canon", ExploreOpts(cfg, Options{Workers: 2, NoCanon: true}), 1_140_851, 3_036_164)
	if !raceEnabled {
		check("serial", exploreSerial(cfg), 1_140_851, 3_036_164)
	}
	check("engine, canonical", ExploreOpts(cfg, Options{Workers: 2}), 285_914, 761_537)
}

// TestWorkerCountInvariance: the canonical engine's verdict-bearing
// numbers are identical at any worker count.
func TestWorkerCountInvariance(t *testing.T) {
	cfg := Config{Nodes: 2, Lines: 2, MaxWrites: 2, QueueDepth: 2,
		Delegation: true, DetThresh: 1, MaxIssues: 2}
	var base *Result
	for _, workers := range []int{1, 2, 3, 8} {
		r := ExploreOpts(cfg, Options{Workers: workers})
		if base == nil {
			base = r
			continue
		}
		if r.States != base.States || r.Transitions != base.Transitions ||
			r.DedupHits != base.DedupHits || r.Delegated != base.Delegated ||
			r.MaxQueue != base.MaxQueue ||
			len(r.Violations) != len(base.Violations) || len(r.Deadlocks) != len(base.Deadlocks) {
			t.Fatalf("workers=%d: %+v != workers=%d: %+v", workers, r, base.Workers, base)
		}
	}
}

// TestCanonicalReduction: symmetry reduction shrinks the state count
// without changing the verdict.
func TestCanonicalReduction(t *testing.T) {
	cfg := Config{Nodes: 3, Lines: 2, MaxWrites: 2, QueueDepth: 2,
		Delegation: true, DetThresh: 1, MaxIssues: 1}
	full := ExploreOpts(cfg, Options{NoCanon: true})
	red := ExploreOpts(cfg, Options{})
	if !full.Ok() || !red.Ok() {
		t.Fatalf("verdicts differ: full %v red %v", full.Ok(), red.Ok())
	}
	if red.States >= full.States {
		t.Fatalf("no reduction: canonical %d vs full %d", red.States, full.States)
	}
	t.Logf("reduction: %d -> %d states (%.2fx)", full.States, red.States,
		float64(full.States)/float64(red.States))
}

// TestDeterministicLitmusFailureSelection forces a litmus failure (a
// check that rejects outcomes reachable in some interleavings) and
// requires the reported counterexample — down to the state embedded in
// the error text — to be identical across worker counts.
func TestDeterministicLitmusFailureSelection(t *testing.T) {
	shape := StandardLitmusShapes()[0] // CoRR
	reject := func(obs [][]int8) error {
		// Reject any outcome where node 2 saw version 2: guaranteed to
		// occur in some interleavings, so the suite "fails"
		// deterministically.
		for _, reads := range obs {
			for _, v := range reads {
				if v == 2 {
					return fmt.Errorf("saw v2")
				}
			}
		}
		return nil
	}
	var msgs []string
	for _, workers := range []int{1, 3} {
		cfg := DefaultConfig()
		cfg.MaxWrites = 3
		cfg.MaxIssues = 6
		cfg.Scripts = shape.Scripts
		res := Litmus("corr-reject", cfg, reject, Options{Workers: workers})
		if res.Err == nil {
			t.Fatal("expected a rejected outcome")
		}
		msgs = append(msgs, res.Err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("failure selection depends on workers:\n  w1: %s\n  wN: %s", msgs[0], msgs[1])
	}
}

// TestLitmusWorkersEquivalent runs the standard litmus suite at workers=1
// and workers=4 and requires identical verdicts, state counts and outcome
// counts.
func TestLitmusWorkersEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("litmus suite is slow")
	}
	for _, sh := range StandardLitmusShapes() {
		cfg := DefaultConfig()
		cfg.MaxWrites = 2
		cfg.MaxIssues = 4
		cfg.Scripts = sh.Scripts
		one := Litmus(sh.Name, cfg, monotonic, Options{Workers: 1})
		many := Litmus(sh.Name, cfg, monotonic, Options{Workers: 4})
		if one.States != many.States || one.Outcomes != many.Outcomes ||
			(one.Err == nil) != (many.Err == nil) {
			t.Fatalf("%s: workers=1 %+v != workers=4 %+v", sh.Name, one, many)
		}
		if one.Err != nil && one.Err.Error() != many.Err.Error() {
			t.Fatalf("%s: error text differs:\n  %s\n  %s", sh.Name, one.Err, many.Err)
		}
	}
}

// TestVisitedTableBasics exercises insert/dup/grow paths directly.
func TestVisitedTableBasics(t *testing.T) {
	tab := newVisitedTable(4)
	fps := make([]uint64, 0, 4096)
	for i := 1; i <= 4096; i++ {
		fps = append(fps, fingerprint([]byte(fmt.Sprint(i))))
	}
	fresh := make([]bool, len(fps))
	seen := make([]bool, len(fps))
	tab.insertBatch(fps, fresh, seen)
	for i, f := range fresh {
		if !f {
			t.Fatalf("entry %d reported duplicate on first insert", i)
		}
	}
	if tab.size() != len(fps) {
		t.Fatalf("size %d != %d", tab.size(), len(fps))
	}
	tab.insertBatch(fps, fresh, seen)
	for i, f := range fresh {
		if f {
			t.Fatalf("entry %d reported fresh on re-insert", i)
		}
	}
	if tab.size() != len(fps) {
		t.Fatalf("size grew on duplicates: %d", tab.size())
	}
}

// BenchmarkExploreSerialMap / BenchmarkExploreEngineNoCanon: the serial
// map-based checker against the engine without symmetry reduction, on
// the same small configuration.
func BenchmarkExploreSerialMap(b *testing.B) {
	cfg := small()
	for i := 0; i < b.N; i++ {
		if r := exploreSerial(cfg); !r.Ok() {
			b.Fatal("verification failed")
		}
	}
}

func BenchmarkExploreEngineNoCanon(b *testing.B) {
	cfg := small()
	for i := 0; i < b.N; i++ {
		if r := ExploreOpts(cfg, Options{NoCanon: true}); !r.Ok() {
			b.Fatal("verification failed")
		}
	}
}
