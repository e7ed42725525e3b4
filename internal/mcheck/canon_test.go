package mcheck

import (
	"bytes"
	"sync"
	"testing"
)

// walkCanonical runs a breadth-first walk from cfg's initial state, deduped
// by the fingerprint of the canonical encoding, as the engine dedups. It
// calls expand on every popped state (if expand is not nil) and visit on
// every successor it generates, until either returns false or the
// reachable set is exhausted. The frontier holds identity encodings and
// the seen set fingerprints, so long walks stay small; each popped state
// is a fresh decode.
func walkCanonical(cfg Config, expand, visit func(s *State) bool) {
	canon := newCanonicalizer(cfg.Nodes, cfg.lines(), cfg.Scripts != nil)
	init := NewState(cfg)
	seen := map[uint64]struct{}{fingerprint(canon.canonical(init)): {}}
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
			k := fingerprint(canon.canonical(sc.State))
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

// TestIdentityPerms pins the directly built identity permutations against
// the first permutation the enumeration yields.
func TestIdentityPerms(t *testing.T) {
	for n := 0; n <= 8; n++ {
		if *identityPerms[n] != *newNodePerm(permutations(n)[0]) {
			t.Errorf("identityPerms[%d] is not the identity permutation", n)
		}
	}
}

// fuzzState builds a well-formed state from fuzz input. The first two
// bytes pick 2-8 nodes and 1-3 lines; the rest is read as an identity
// encoding of that shape with every field folded into its range: node
// ids into -1..n-1, masks onto the n nodes, channels up to DeepConfig's
// queue depth, message lines and enumerations into theirs. Missing bytes
// read as zero. So the bytes 2 and 1 followed by the encoding of a
// DeepConfig state build that state back.
func fuzzState(data []byte) *State {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 2 + int(next())%7
	lines := 1 + int(next())%3
	full := uint8(1<<n - 1)
	id := func() int8 { // keeps -1..n-1, folds the rest into that range
		v := int8(next())
		if v < -1 || int(v) >= n {
			v = int8(int(uint8(v))%(n+1)) - 1
		}
		return v
	}
	msgType := func() MsgType { return MsgType(next() % byte(numMsgTypes)) }
	s := NewState(Config{Nodes: n, Lines: lines})
	for l := range lines {
		for i := range n {
			nd := s.node(l, i)
			nd.Cache = CacheState(next() % 3)
			nd.Val = int8(next())
			nd.Mshr = MshrState(next() % 5)
			nd.Acks = int8(next())
			nd.MVal = int8(next())
			fl := next()
			nd.MHave, nd.Inv, nd.Hint = fl&1 != 0, fl&2 != 0, fl&4 != 0
			nd.RACOk, nd.HasProd, nd.PArmed = fl&8 != 0, fl&16 != 0, fl&32 != 0
			nd.HintProd = id()
			nd.RACVal = int8(next())
			nd.Txn = int8(next())
			nd.GEp = int8(next())
			nd.PDir = DirState(next() % 6)
			nd.PShr = next() & full
			nd.PUpdSet = next() & full
			nd.PInFlt = int8(next())
		}
		h := &s.H[l]
		h.Dir = DirState(next() % 6)
		h.Shr = next() & full
		h.Owner = id()
		h.Pend = id()
		fl := next()
		h.PendX, h.DetRd = fl&1 != 0, fl&2 != 0
		h.PendFwd = msgType()
		h.MemVal = int8(next())
		h.OwnTxn = int8(next())
		h.PendTxn = int8(next())
		h.DetW = id()
		h.DetRep = int8(next())
		s.Latest[l] = int8(next())
	}
	for i := range s.Iss {
		s.Iss[i] = int8(next())
	}
	s.Writes = int8(next())
	for ci := range s.Ch {
		for range int(next()) % (DeepConfig().QueueDepth + 1) {
			m := Msg{Type: msgType(), Line: int8(int(next()) % lines), Req: id()}
			if m.Type == MHint {
				m.Val = id()
			} else {
				m.Val = int8(next())
			}
			m.Acks = int8(next())
			m.Shr = next() & full
			m.Fwd = msgType()
			m.RTxn = int8(next())
			m.GEp = int8(next())
			s.Ch[ci] = append(s.Ch[ci], m)
		}
	}
	return s
}

// FuzzCanonical checks the canonicalizer byte for byte against the
// reference oracle on arbitrary well-formed states of up to 8 nodes and 3
// lines, including home-node records that the node permutations change
// and so reach the prunes' fallback paths. It is seeded with states of
// the DeepConfig walk.
func FuzzCanonical(f *testing.F) {
	for _, s := range sampleWalk(20_000, 500) {
		seed := s.Encode([]byte{2, 1})
		if got := fuzzState(seed).Encode(nil); !bytes.Equal(got, seed[2:]) {
			f.Fatalf("fuzzState does not rebuild a DeepConfig state\ngot  %x\nwant %x", got, seed[2:])
		}
		f.Add(seed)
	}
	var mu sync.Mutex
	refs := map[[2]int]*refCanonicalizer{}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzState(data)
		shape := [2]int{s.nodes(), len(s.H)}
		mu.Lock()
		ref := refs[shape]
		if ref == nil {
			ref = newRefCanonicalizer(shape[0], shape[1], false)
			refs[shape] = ref
		}
		mu.Unlock()
		got := newCanonicalizer(shape[0], shape[1], false).canonical(s)
		if want := ref.canonical(s); !bytes.Equal(got, want) {
			t.Fatalf("%d nodes, %d lines: canonical encoding differs from the reference\nidentity %x\ngot      %x\nwant     %x",
				shape[0], shape[1], s.Encode(nil), got, want)
		}
	})
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

// deepSuccessors is the number of successors an exploration of
// DeepConfig generates: its transition count.
const deepSuccessors = 1_140_232

// sampleWalk returns every step-th successor among the first limit
// successors that exploring DeepConfig generates: a canonical
// breadth-first walk in which each state's successors are generated from
// its canonical form, as the engine does.
func sampleWalk(limit, step int) []*State {
	cfg := DeepConfig()
	c := newCanonicalizer(cfg.Nodes, cfg.lines(), false)
	var states []*State
	i := 0
	walkCanonical(cfg, func(s *State) bool {
		for _, sc := range Successors(cfg, DecodeState(cfg, c.canonical(s))) {
			if i%step == 0 {
				states = append(states, sc.State)
			}
			i++
		}
		return i < limit
	}, nil)
	return states
}

// BenchmarkCanonical measures one canonical encoding of a DeepConfig
// state. The ~2,000 states are spread evenly over the whole walk, so they
// are the exploration's mix (the walk's first states are mostly invalid
// lines) and their encodings stay cache-resident.
func BenchmarkCanonical(b *testing.B) {
	states := sampleWalk(deepSuccessors, deepSuccessors/2000)
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
	states := sampleWalk(4096, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Successors(cfg, states[i%len(states)])
	}
}
