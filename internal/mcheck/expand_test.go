package mcheck

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// dirtyState returns a state of cfg's shape whose every slice is longer
// than any reachable state's and filled with junk, so that a State
// recycled from it exposes any stale element or shared backing array.
func dirtyState(cfg Config) *State {
	s := NewState(cfg)
	for i := range s.N {
		s.N[i] = Node{Cache: CE, Val: 7, Mshr: MWaitAck, Acks: 5, HasProd: true, PInFlt: 3}
	}
	for i := range s.H {
		s.H[i] = Home{Dir: DD, Shr: 0xff, Owner: 3, MemVal: 7}
	}
	for i := range s.Ch {
		for j := 0; j < cfg.QueueDepth+3; j++ {
			s.Ch[i] = append(s.Ch[i], Msg{Type: MUpd, Line: 1, Req: 2, Val: 7, Acks: 3, Shr: 0xff, RTxn: 9, GEp: 9})
		}
	}
	s.PC = make([]int8, cfg.Nodes)
	s.Obs = make([][]int8, cfg.Nodes)
	for i := range s.Obs {
		s.Obs[i] = []int8{7, 7, 7, 7, 7, 7}
	}
	return s
}

// scribble mutates every part of s, appending to each queue and
// observation list within capacity and overwriting each element.
func scribble(s *State) {
	for i := range s.N {
		s.N[i].Val ^= 0x55
	}
	for i := range s.H {
		s.H[i].MemVal ^= 0x55
	}
	s.Iss[0] ^= 0x55
	s.Latest[0] ^= 0x55
	for i, q := range s.Ch {
		for j := range q {
			q[j].Val ^= 0x55
		}
		s.Ch[i] = append(q, Msg{Type: MNack, Val: 0x55})
	}
	for i, o := range s.Obs {
		for j := range o {
			o[j] ^= 0x55
		}
		s.Obs[i] = append(o, 0x55)
	}
	for i := range s.PC {
		s.PC[i] ^= 0x55
	}
}

// checkRecycledExpansion compares a recycling generator and a reused
// decode state against fresh Successors and DecodeState on the first
// limit canonical states of cfg (0: all of them) and returns how many it
// compared. Before every call the recycled states are overwritten with
// dirtyState; afterwards one recycled successor is scribbled over, and its
// parent and siblings must not change.
func checkRecycledExpansion(t *testing.T, cfg Config, limit int) int {
	t.Helper()
	dirty := dirtyState(cfg)
	var g gen
	var dec State
	k := 0
	walkCanonical(cfg, func(s *State) bool {
		enc := s.Encode(nil)
		dirty.copyInto(&dec)
		decodeInto(cfg, enc, &dec)
		if !bytes.Equal(dec.Encode(nil), enc) {
			t.Fatalf("state %d: decodeInto a recycled state gives %s, want %s", k, &dec, s)
		}

		want := Successors(cfg, s)
		for len(g.pool) < len(want)+2 {
			g.pool = append(g.pool, &State{})
		}
		for _, ps := range g.pool {
			dirty.copyInto(ps)
		}
		g.reset()
		g.successors(cfg, &dec)
		if len(g.out) != len(want) {
			t.Fatalf("state %d: %d recycled successors, want %d", k, len(g.out), len(want))
		}
		encs := make([][]byte, len(g.out))
		for i, sc := range g.out {
			encs[i] = sc.State.Encode(nil)
			if sc.Rule != want[i].Rule || !bytes.Equal(encs[i], want[i].State.Encode(nil)) {
				t.Fatalf("state %d successor %d: recycled %v %s, fresh %v %s",
					k, i, sc.Rule, sc.State, want[i].Rule, want[i].State)
			}
		}

		if len(g.out) > 0 {
			victim := k % len(g.out)
			scribble(g.out[victim].State)
			if !bytes.Equal(dec.Encode(nil), enc) {
				t.Fatalf("state %d: scribbling successor %d changed the parent", k, victim)
			}
			for i, sc := range g.out {
				if i != victim && !bytes.Equal(sc.State.Encode(nil), encs[i]) {
					t.Fatalf("state %d: scribbling successor %d changed sibling %d", k, victim, i)
				}
			}
		}
		k++
		return limit == 0 || k < limit
	}, nil)
	return k
}

// TestRecycledExpansionMatchesFresh guards the engine's allocation-free
// expansion against aliasing: on the deep configuration and on a litmus
// shape (which adds the PC/Obs tail), a reused generator and decode state
// yield exactly what fresh Successors and DecodeState do, and recycled
// successors share no backing array with their parent or each other. The
// test runs on one goroutine, so the race build walks a shorter prefix.
func TestRecycledExpansionMatchesFresh(t *testing.T) {
	limit := 50_000
	if raceEnabled {
		limit = 10_000
	}
	if n := checkRecycledExpansion(t, DeepConfig(), limit); n < limit {
		t.Fatalf("deep walk reached only %d states", n)
	}
	cfg := DefaultConfig()
	cfg.MaxWrites = 2
	cfg.MaxIssues = 4
	cfg.Scripts = StandardLitmusShapes()[2].Scripts
	checkRecycledExpansion(t, cfg, 0)
}

// TestExpandZeroAlloc pins the engine's expansion at 0 allocations per
// state once warm: the popped state decodes into the worker's State, the
// successors come from its recycled pool, and the canonicalizer and the
// batch scratch are reused. Every child of the recorded states is in the
// visited table after the first pass, so the re-expansions enqueue
// nothing and the frontier is not touched.
func TestExpandZeroAlloc(t *testing.T) {
	cfg := DeepConfig()
	e := newEngine(cfg, Options{Workers: 1})
	w := e.workers[0]
	var encs [][]byte
	for _, s := range sampleWalk(256, 1) {
		encs = append(encs, append([]byte(nil), w.canon.canonical(s)...))
	}
	for _, enc := range encs {
		e.expand(w, enc)
	}
	w.q = frontier{}
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		e.expand(w, encs[i%len(encs)])
		i++
	}); a != 0 {
		t.Errorf("engine.expand: %.1f allocs per state, want 0", a)
	}
	if w.q.len() != 0 {
		t.Errorf("re-expansion enqueued %d states; every child was already visited", w.q.len())
	}
}

// TestDeepConfigCounts pins DeepConfig's exploration exactly at 1 and 2
// workers: the symmetry-reduced fixpoint with no violation, no deadlock
// and no error, down to Result.String, which the benchmark reports as the
// run's digest. A second row pins the one-step looser global issue budget
// (MaxTotalIssues: 5) at 2 workers; it runs for tens of seconds, so -short
// skips it. Under the race detector the CI's deep-only verification run
// covers the same exploration, so the pins run only without it.
func TestDeepConfigCounts(t *testing.T) {
	if raceEnabled {
		t.Skip("covered by the race build's deep-only verification run")
	}
	looser := DeepConfig()
	looser.MaxTotalIssues = 5
	for _, tc := range []struct {
		name    string
		cfg     Config
		workers []int
		long    bool
		want    string
	}{
		{"deep", DeepConfig(), []int{1, 2}, false, "states=404959 transitions=1140232 violations=0 deadlocks=0"},
		{"deep/tot=5", looser, []int{2}, true, "states=9073482 transitions=29878735 violations=0 deadlocks=0"},
	} {
		if tc.long && testing.Short() {
			t.Logf("%s: skipped under -short", tc.name)
			continue
		}
		for _, workers := range tc.workers {
			r := ExploreOpts(tc.cfg, Options{Workers: workers})
			if r.String() != tc.want || r.Err != nil || !r.Ok() {
				t.Errorf("%s workers=%d: %s, err %v; want %s and no error", tc.name, workers, r, r.Err, tc.want)
			}
		}
	}
}

// TestMaxStatesStopsSearch: a state bound far below DeepConfig's fixpoint
// stops every worker within one 1,024-state flush of the crossing and
// reports the truncation as an error, never as a verdict.
func TestMaxStatesStopsSearch(t *testing.T) {
	const bound = 50_000
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := ExploreOpts(DeepConfig(), Options{Workers: workers, MaxStates: bound})
			if !errors.Is(r.Err, ErrStateBound) {
				t.Fatalf("err %v, want ErrStateBound", r.Err)
			}
			var sb *StateBoundError
			if !errors.As(r.Err, &sb) || sb.Bound != bound || sb.States != r.States {
				t.Errorf("err %#v, want Bound %d and States %d", r.Err, bound, r.States)
			}
			if r.States <= bound || r.States > bound+1_024*workers {
				t.Errorf("stopped after %d states, want (%d, %d]", r.States, bound, bound+1_024*workers)
			}
			if r.Ok() {
				t.Error("a truncated search reports Ok")
			}
		})
	}
	t.Run("litmus", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Scripts = StandardLitmusShapes()[2].Scripts // PC-rounds, far past the bound
		r := Litmus("PC-rounds", cfg, monotonic, Options{Workers: 1, MaxStates: 1_000})
		if !errors.Is(r.Err, ErrStateBound) || r.Outcomes != 0 {
			t.Errorf("err %v, %d outcomes; want ErrStateBound and no outcome checked", r.Err, r.Outcomes)
		}
	})
}

// TestFingerprint: the hash never returns the visited table's empty-slot
// sentinel, changes under any single-byte change of inputs of 1 to 40
// bytes (across the word loop and the partial tail word) and under a
// top-bit change spread across two adjacent words, and separates inputs
// that differ only by trailing zero bytes.
func TestFingerprint(t *testing.T) {
	if got := fingerprint(nil); got != fpOffset {
		t.Errorf("fingerprint(nil) = %#x, want the remapped %#x", got, uint64(fpOffset))
	}
	for n := 1; n <= 40; n++ {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*37 + n)
		}
		base := fingerprint(b)
		if base == 0 || fingerprint(make([]byte, n)) == 0 {
			t.Fatalf("length %d: fingerprint 0", n)
		}
		for i := range b {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				b[i] ^= flip
				if fingerprint(b) == base {
					t.Fatalf("length %d: flipping byte %d by %#x leaves the fingerprint unchanged", n, i, flip)
				}
				b[i] ^= flip
			}
		}
	}
	// A flipped top bit of one word must not be cancelled by the next:
	// 0x80 in byte 7 of one word and in bytes 3 and 7 of the following one.
	for n := 16; n <= 40; n++ {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*37 + n)
		}
		base := fingerprint(b)
		for w := 0; w+16 <= n; w += 8 {
			b[w+7] ^= 0x80
			b[w+11] ^= 0x80
			b[w+15] ^= 0x80
			if fingerprint(b) == base {
				t.Fatalf("length %d: top-bit flips in words %d and %d cancel", n, w/8, w/8+1)
			}
			b[w+7] ^= 0x80
			b[w+11] ^= 0x80
			b[w+15] ^= 0x80
		}
	}
	for n := 0; n <= 40; n++ {
		b := bytes.Repeat([]byte{0xa5}, n)
		seen := map[uint64]int{}
		for pad := 0; pad <= 16; pad++ {
			h := fingerprint(append(b[:n:n], make([]byte, pad)...))
			if prev, dup := seen[h]; dup {
				t.Fatalf("length %d: %d and %d trailing zero bytes hash alike", n, prev, pad)
			}
			seen[h] = pad
		}
	}
}

// BenchmarkExploreDeep measures a one-worker exploration of DeepConfig to
// its fixpoint; B/op is what the engine allocates per exploration.
func BenchmarkExploreDeep(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		ExploreOpts(DeepConfig(), Options{Workers: 1})
	}
}
