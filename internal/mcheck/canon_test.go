package mcheck

import (
	"bytes"
	"sync"
	"testing"
)

// walkCanonical runs a breadth-first walk from cfg's initial state, deduped
// by canonical key. It calls expand on every popped state (if expand is
// not nil) and visit on every successor it generates, until either returns
// false or the reachable set is exhausted. The frontier holds identity
// encodings, so long walks stay small; each popped state is a fresh decode.
func walkCanonical(cfg Config, expand, visit func(s *State) bool) {
	canon := newCanonicalizer(cfg.Nodes, cfg.lines(), cfg.Scripts != nil)
	init := NewState(cfg)
	seen := map[string]struct{}{string(canon.canonical(init)): {}}
	queue := [][]byte{init.Encode(nil)}
	for len(queue) > 0 {
		st := DecodeState(cfg, queue[0])
		queue = queue[1:]
		if expand != nil && !expand(st) {
			return
		}
		for _, sc := range Successors(cfg, st) {
			if visit != nil && !visit(sc.State) {
				return
			}
			k := string(canon.canonical(sc.State))
			if _, ok := seen[k]; ok {
				continue
			}
			seen[k] = struct{}{}
			queue = append(queue, sc.State.Encode(nil))
		}
	}
}

// checkAgainstReference compares the canonicalizer with the reference
// oracle on every successor of a walk of cfg, up to limit successors
// (0: the whole reachable set). It returns how many were compared.
func checkAgainstReference(t *testing.T, cfg Config, limit int) int {
	t.Helper()
	identity := cfg.Scripts != nil
	c := newCanonicalizer(cfg.Nodes, cfg.lines(), identity)
	ref := newRefCanonicalizer(cfg.Nodes, cfg.lines(), identity)
	n := 0
	walkCanonical(cfg, nil, func(s *State) bool {
		got, want := c.canonical(s), ref.canonical(s)
		if !bytes.Equal(got, want) {
			t.Fatalf("successor %d: canonical encoding differs from the reference\nstate %s\ngot  %x\nwant %x",
				n, s, got, want)
		}
		n++
		return limit == 0 || n < limit
	})
	return n
}

// TestCanonicalMatchesReference: the table-driven, early-exit
// canonicalizer returns exactly the reference permute-then-encode minimum
// on the deep and benchmark configurations and, in identity mode, on every
// standard litmus shape.
func TestCanonicalMatchesReference(t *testing.T) {
	if n := checkAgainstReference(t, DeepConfig(), 300_000); n < 300_000 {
		t.Fatalf("deep walk compared only %d successors", n)
	}
	checkAgainstReference(t, BenchConfig(), 100_000)
	for _, sh := range StandardLitmusShapes() {
		cfg := DefaultConfig()
		cfg.MaxWrites = 2
		cfg.MaxIssues = 4
		cfg.Scripts = sh.Scripts
		checkAgainstReference(t, cfg, 0)
	}
}

// TestCanonicalKeyConcurrent is the regression test for the shared
// permutation cache race: CanonicalKey and Encode run concurrently on
// shared states. Under -race, any write to shared group data shows up here.
func TestCanonicalKeyConcurrent(t *testing.T) {
	cfg := DeepConfig()
	var states []*State
	walkCanonical(cfg, nil, func(s *State) bool {
		states = append(states, s)
		return len(states) < 64
	})
	want := make([]string, len(states))
	for i, s := range states {
		want[i] = s.CanonicalKey()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for i, s := range states {
					if got := s.CanonicalKey(); got != want[i] {
						t.Errorf("state %d: concurrent CanonicalKey differs", i)
						return
					}
					s.Encode(nil)
				}
			}
		}()
	}
	wg.Wait()
}

// TestCanonicalZeroAlloc pins the exploration hot path: after warm-up a
// canonicalizer allocates nothing per state, and CanonicalKey allocates
// only its scratch and the returned key — never the symmetry group.
func TestCanonicalZeroAlloc(t *testing.T) {
	cfg := DeepConfig()
	var states []*State
	walkCanonical(cfg, nil, func(s *State) bool {
		states = append(states, s)
		return len(states) < 256
	})
	c := newCanonicalizer(cfg.Nodes, cfg.lines(), false)
	for _, s := range states {
		c.canonical(s)
	}
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		c.canonical(states[i%len(states)])
		i++
	}); a != 0 {
		t.Errorf("canonicalizer.canonical: %.1f allocs per state, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		states[i%len(states)].CanonicalKey()
		i++
	}); a > 2 {
		t.Errorf("CanonicalKey: %.1f allocs per call, want at most 2 (scratch and key)", a)
	}
}

// TestRuleLabels pins the rendered label of every rule kind, with and
// without the multi-line prefix.
func TestRuleLabels(t *testing.T) {
	for _, tc := range []struct {
		r    Rule
		want string
	}{
		{issueRule(1, 0, 1, 0, MGetS), "n1.GetS->0"},
		{issueRule(2, 1, 3, 2, MUpg), "L1:n3.Upg->2"},
		{nodeRule(RuleRACHit, 1, 0, 2), "n2.RACHit"},
		{nodeRule(RuleDelegatedWrite, 2, 0, 1), "L0:n1.DelegatedWrite"},
		{nodeRule(RuleEvictWB, 1, 0, 1), "n1.Evict(WB)"},
		{nodeRule(RuleEvictS, 1, 0, 2), "n2.EvictS"},
		{nodeRule(RuleIntervention, 1, 0, 1), "n1.Intervention"},
		{nodeRule(RuleLatePush, 2, 1, 1), "L1:n1.LatePush"},
		{nodeRule(RuleReadHit, 1, 0, 0), "n0.ReadHit"},
		{nodeRule(RuleReadRAC, 1, 0, 2), "n2.ReadRAC"},
		{nodeRule(RuleWriteHit, 1, 0, 1), "n1.WriteHit"},
		{Rule{Kind: RuleDeliver, Line: -1, Node: 1, Dst: 0, Msg: MWB}, "1->0.WB"},
		{Rule{Kind: RuleDeliver, Line: 1, Node: 0, Dst: 2, Msg: MXferReq}, "L1:0->2.XferReq"},
	} {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("%+v renders %q, want %q", tc.r, got, tc.want)
		}
	}
}

// recordedStates returns the first n states of a canonical breadth-first
// walk of DeepConfig: a realistic mix for the hot-path benchmarks.
func recordedStates(n int) []*State {
	var states []*State
	walkCanonical(DeepConfig(), nil, func(s *State) bool {
		states = append(states, s)
		return len(states) < n
	})
	return states
}

// BenchmarkCanonical measures one canonical encoding of a recorded
// DeepConfig state.
func BenchmarkCanonical(b *testing.B) {
	states := recordedStates(4096)
	c := newCanonicalizer(4, 2, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.canonical(states[i%len(states)])
	}
}

// BenchmarkSuccessors measures successor generation from a recorded
// DeepConfig state.
func BenchmarkSuccessors(b *testing.B) {
	cfg := DeepConfig()
	states := recordedStates(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Successors(cfg, states[i%len(states)])
	}
}
