package cache

import (
	"math/rand"
	"testing"

	"pccsim/internal/msg"
)

// refCache is the dense cache this package used before storage moved to
// Array: every set allocated up front, 48-byte lines holding their own
// LRU stamp, and a divide to index a set. It is kept as the oracle the
// first-touch cache must match operation for operation.
type refCache struct {
	lineBytes int
	numSets   int
	ways      int
	sets      []refLine
	useClock  uint64
}

type refLine struct {
	Line
	lastUse uint64
}

func newRef(totalBytes, ways, lineBytes int) *refCache {
	numSets := totalBytes / (ways * lineBytes)
	return &refCache{lineBytes: lineBytes, numSets: numSets, ways: ways,
		sets: make([]refLine, numSets*ways)}
}

func (c *refCache) align(addr msg.Addr) msg.Addr { return addr &^ msg.Addr(c.lineBytes-1) }

func (c *refCache) set(addr msg.Addr) []refLine {
	idx := (uint64(addr) / uint64(c.lineBytes)) & uint64(c.numSets-1)
	return c.sets[idx*uint64(c.ways) : (idx+1)*uint64(c.ways)]
}

func (c *refCache) lookup(addr msg.Addr) *refLine {
	addr = c.align(addr)
	set := c.set(addr)
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == addr {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) touch(addr msg.Addr) *refLine {
	l := c.lookup(addr)
	if l != nil {
		c.useClock++
		l.lastUse = c.useClock
	}
	return l
}

func (c *refCache) insert(addr msg.Addr, st State) (*refLine, Victim) {
	addr = c.align(addr)
	set := c.set(addr)
	var victim Victim
	slot := -1
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == addr {
			slot = i
			break
		}
		if slot < 0 && set[i].State == Invalid {
			slot = i
		}
	}
	if slot < 0 {
		slot = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[slot].lastUse {
				slot = i
			}
		}
		victim = victimOf(&set[slot].Line)
	}
	c.useClock++
	set[slot] = refLine{Line: Line{Addr: addr, State: st}, lastUse: c.useClock}
	return &set[slot], victim
}

func (c *refCache) invalidate(addr msg.Addr) Victim {
	l := c.lookup(addr)
	if l == nil {
		return Victim{}
	}
	v := victimOf(&l.Line)
	*l = refLine{}
	return v
}

func (c *refCache) invalidateRange(addr msg.Addr, n int) {
	for a := c.align(addr); a < addr+msg.Addr(n); a += msg.Addr(c.lineBytes) {
		c.invalidate(a)
	}
}

func (c *refCache) forEach(fn func(*Line)) {
	for i := range c.sets {
		if c.sets[i].State != Invalid {
			fn(&c.sets[i].Line)
		}
	}
}

// TestMatchesReference drives the first-touch cache and the dense
// reference through the same random operation sequences — on one set,
// fewer sets than one storage chunk, and several chunks — and requires
// identical lines, victims and ForEach order after every step.
func TestMatchesReference(t *testing.T) {
	for _, g := range []struct{ bytes, ways, line int }{
		{128, 1, 128},          // one set, direct-mapped
		{4 * 32, 4, 32},        // one set, 4 ways
		{4 * 2 * 128, 2, 128},  // 4 sets: under one chunk
		{64 * 4 * 128, 4, 128}, // 64 sets: several chunks
		{256 * 2 * 32, 2, 32},  // L1-shaped
	} {
		for seed := int64(1); seed <= 10; seed++ {
			diffCache(t, g.bytes, g.ways, g.line, seed)
		}
	}
}

func diffCache(t *testing.T, bytes, ways, lineBytes int, seed int64) {
	t.Helper()
	c, ref := New(bytes, ways, lineBytes), newRef(bytes, ways, lineBytes)
	rng := rand.New(rand.NewSource(seed))
	span := 3 * bytes // addresses alias every set about three times over
	same := func(step int, what string, got *Line, want *refLine) {
		t.Helper()
		if (got == nil) != (want == nil) || got != nil && *got != want.Line {
			t.Fatalf("geometry %d/%d/%d seed %d step %d %s: got %+v, want %+v",
				bytes, ways, lineBytes, seed, step, what, got, want)
		}
	}
	for step := 0; step < 2000; step++ {
		addr := msg.Addr(rng.Intn(span))
		switch op := rng.Intn(10); {
		case op < 3:
			st := State(1 + rng.Intn(2))
			l, v := c.Insert(addr, st)
			rl, rv := ref.insert(addr, st)
			if v != rv {
				t.Fatalf("seed %d step %d: victim %+v, want %+v", seed, step, v, rv)
			}
			same(step, "insert", l, rl)
			// Dirty the line identically so later victims carry state.
			l.Dirty, l.Version, l.Grant = true, uint64(step), uint64(seed)
			rl.Dirty, rl.Version, rl.Grant = true, uint64(step), uint64(seed)
		case op < 5:
			same(step, "lookup", c.Lookup(addr), ref.lookup(addr))
		case op < 7:
			same(step, "touch", c.Touch(addr), ref.touch(addr))
		case op < 9:
			if v, rv := c.Invalidate(addr), ref.invalidate(addr); v != rv {
				t.Fatalf("seed %d step %d: invalidate %+v, want %+v", seed, step, v, rv)
			}
		default:
			n := 1 + rng.Intn(4*lineBytes)
			c.InvalidateRange(addr, n)
			ref.invalidateRange(addr, n)
		}
		var got, want []Line
		c.ForEach(func(l *Line) { got = append(got, *l) })
		ref.forEach(func(l *Line) { want = append(want, *l) })
		if len(got) != len(want) || c.Count() != len(want) {
			t.Fatalf("seed %d step %d: %d lines (Count %d), want %d", seed, step, len(got), c.Count(), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d step %d: ForEach[%d] = %+v, want %+v", seed, step, i, got[i], want[i])
			}
		}
	}
}
