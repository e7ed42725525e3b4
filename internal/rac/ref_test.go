package rac

import (
	"math/rand"
	"testing"

	"pccsim/internal/cache"
	"pccsim/internal/msg"
)

// refRAC is the dense RAC this package used before storage moved to
// cache.Array, kept as the oracle the first-touch RAC must match.
type refRAC struct {
	lineBytes int
	numSets   int
	ways      int
	sets      []refLine
	useClock  uint64
}

type refLine struct {
	Line
	valid   bool
	lastUse uint64
}

func newRef(totalBytes, ways, lineBytes int) *refRAC {
	numSets := totalBytes / (ways * lineBytes)
	return &refRAC{lineBytes: lineBytes, numSets: numSets, ways: ways,
		sets: make([]refLine, numSets*ways)}
}

func (r *refRAC) align(addr msg.Addr) msg.Addr { return addr &^ msg.Addr(r.lineBytes-1) }

func (r *refRAC) set(addr msg.Addr) []refLine {
	idx := (uint64(addr) / uint64(r.lineBytes)) & uint64(r.numSets-1)
	return r.sets[idx*uint64(r.ways) : (idx+1)*uint64(r.ways)]
}

func (r *refRAC) lookup(addr msg.Addr) *refLine {
	addr = r.align(addr)
	set := r.set(addr)
	for i := range set {
		if set[i].valid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

func (r *refRAC) touch(addr msg.Addr) *refLine {
	l := r.lookup(addr)
	if l != nil {
		r.useClock++
		l.lastUse = r.useClock
	}
	return l
}

// insert returns the evicted way whole: its valid bit reports whether a
// resident entry was displaced.
func (r *refRAC) insert(addr msg.Addr, st cache.State) (*refLine, refLine, bool) {
	addr = r.align(addr)
	set := r.set(addr)
	slot := -1
	for i := range set {
		if set[i].valid && set[i].Addr == addr {
			slot = i
			break
		}
		if slot < 0 && !set[i].valid {
			slot = i
		}
	}
	var victim refLine
	if slot < 0 {
		for i := range set {
			if set[i].Pinned {
				continue
			}
			if slot < 0 || set[i].lastUse < set[slot].lastUse {
				slot = i
			}
		}
		if slot < 0 {
			return nil, refLine{}, false
		}
		victim = set[slot]
	}
	r.useClock++
	pinned := set[slot].valid && set[slot].Addr == addr && set[slot].Pinned
	set[slot] = refLine{Line: Line{Addr: addr, State: st, Pinned: pinned}, valid: true, lastUse: r.useClock}
	return &set[slot], victim, true
}

func (r *refRAC) invalidate(addr msg.Addr) Line {
	l := r.lookup(addr)
	if l == nil {
		return Line{}
	}
	v := l.Line
	*l = refLine{}
	return v
}

func (r *refRAC) forEach(fn func(*Line)) {
	for i := range r.sets {
		if r.sets[i].valid {
			fn(&r.sets[i].Line)
		}
	}
}

// TestMatchesReference drives the first-touch RAC and the dense
// reference through the same random Insert/Lookup/Touch/Pin/Unpin/
// Invalidate sequences and requires identical entries, victims, ok
// results and ForEach order after every step. Pins are frequent enough
// that whole sets fill with pinned entries and Insert must refuse.
func TestMatchesReference(t *testing.T) {
	for _, g := range []struct{ bytes, ways int }{
		{128, 1},          // one set, direct-mapped
		{4 * 128, 4},      // one set, 4 ways
		{4 * 2 * 128, 2},  // 4 sets: under one page
		{64 * 4 * 128, 4}, // 64 sets: several pages
	} {
		for seed := int64(1); seed <= 10; seed++ {
			diffRAC(t, g.bytes, g.ways, seed)
		}
	}
}

func diffRAC(t *testing.T, bytes, ways int, seed int64) {
	t.Helper()
	const lineBytes = 128
	r, ref := New(bytes, ways, lineBytes), newRef(bytes, ways, lineBytes)
	rng := rand.New(rand.NewSource(seed))
	refused := 0
	same := func(step int, what string, got *Line, want *refLine) {
		t.Helper()
		if (got == nil) != (want == nil) || got != nil && *got != want.Line {
			t.Fatalf("geometry %d/%d seed %d step %d %s: got %+v, want %+v",
				bytes, ways, seed, step, what, got, want)
		}
	}
	for step := 0; step < 2000; step++ {
		addr := msg.Addr(rng.Intn(3 * bytes))
		switch op := rng.Intn(12); {
		case op < 4:
			st := cache.State(1 + rng.Intn(2))
			l, v, ok := r.Insert(addr, st)
			rl, rv, rok := ref.insert(addr, st)
			if ok != rok || v != rv.Line {
				t.Fatalf("seed %d step %d: insert (%+v, %v), want (%+v, %v)", seed, step, v, ok, rv.Line, rok)
			}
			if rv.valid && v.State == cache.Invalid {
				t.Fatalf("seed %d step %d: evicted resident entry %+v reads as nothing displaced", seed, step, v)
			}
			if !ok {
				refused++
				continue
			}
			same(step, "insert", l, rl)
			l.Dirty, l.Version, l.FromUpdate = true, uint64(step), step%2 == 0
			rl.Dirty, rl.Version, rl.FromUpdate = true, uint64(step), step%2 == 0
		case op < 6:
			same(step, "lookup", r.Lookup(addr), ref.lookup(addr))
		case op < 7:
			same(step, "touch", r.Touch(addr), ref.touch(addr))
		case op < 9:
			rl := ref.lookup(addr)
			if r.Pin(addr) != (rl != nil) {
				t.Fatalf("seed %d step %d: Pin disagrees", seed, step)
			}
			if rl != nil {
				rl.Pinned = true
			}
		case op < 10:
			if l := r.Lookup(addr); l != nil {
				l.Pinned = false
			}
			if rl := ref.lookup(addr); rl != nil {
				rl.Pinned = false
			}
		default:
			if v, rv := r.Invalidate(addr), ref.invalidate(addr); v != rv {
				t.Fatalf("seed %d step %d: invalidate %+v, want %+v", seed, step, v, rv)
			}
		}
		var got, want []Line
		r.ForEach(func(l *Line) { got = append(got, *l) })
		ref.forEach(func(l *Line) { want = append(want, *l) })
		if len(got) != len(want) || r.Count() != len(want) {
			t.Fatalf("seed %d step %d: %d entries (Count %d), want %d", seed, step, len(got), r.Count(), len(want))
		}
		pins := 0
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d step %d: ForEach[%d] = %+v, want %+v", seed, step, i, got[i], want[i])
			}
			if got[i].Pinned {
				pins++
			}
		}
		if r.PinnedCount() != pins {
			t.Fatalf("seed %d step %d: PinnedCount %d, want %d", seed, step, r.PinnedCount(), pins)
		}
	}
	if refused == 0 && bytes <= 4*128 {
		t.Fatalf("geometry %d/%d seed %d: no Insert ever met an all-pinned set", bytes, ways, seed)
	}
}
