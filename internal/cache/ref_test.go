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

// insert also reports whether it evicted a resident line.
func (c *refCache) insert(addr msg.Addr, st State) (*refLine, Line, bool) {
	addr = c.align(addr)
	set := c.set(addr)
	var victim Line
	var mask uint8
	slot := -1
	for i := range set {
		if set[i].State != Invalid && set[i].Addr == addr {
			slot, mask = i, set[i].L1
			break
		}
		if slot < 0 && set[i].State == Invalid {
			slot = i
		}
	}
	evicted := slot < 0
	if evicted {
		slot = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[slot].lastUse {
				slot = i
			}
		}
		victim = set[slot].Line
	}
	c.useClock++
	set[slot] = refLine{Line: Line{Addr: addr, State: st, L1: mask}, lastUse: c.useClock}
	return &set[slot], victim, evicted
}

func (c *refCache) invalidate(addr msg.Addr) Line {
	l := c.lookup(addr)
	if l == nil {
		return Line{}
	}
	v := l.Line
	*l = refLine{}
	return v
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
// fewer sets than one storage page, and several pages, one of them with
// every set first filled last to first so that no page holds its sets
// in address order — and requires identical lines, victims and ForEach
// order after every step. The way a line was last filled or found in
// must reach it again: while the line is resident, TouchAt and
// InvalidateAt of that way act as Touch and Invalidate of its address.
func TestMatchesReference(t *testing.T) {
	for _, g := range []struct {
		bytes, ways, line int
		reversed          bool
	}{
		{128, 1, 128, false},          // one set, direct-mapped
		{4 * 32, 4, 32, false},        // one set, 4 ways
		{4 * 2 * 128, 2, 128, false},  // 4 sets: under one page
		{64 * 4 * 128, 4, 128, false}, // 64 sets: several pages
		{64 * 4 * 128, 4, 128, true},  // the same, blocks in reverse set order
		{256 * 2 * 32, 2, 32, false},  // L1-shaped
	} {
		for seed := int64(1); seed <= 10; seed++ {
			diffCache(t, g.bytes, g.ways, g.line, g.reversed, seed)
		}
	}
}

// diffCache runs one random sequence; reversed first fills every set,
// last set first, on both sides.
func diffCache(t *testing.T, bytes, ways, lineBytes int, reversed bool, seed int64) {
	t.Helper()
	c, ref := New(bytes, ways, lineBytes), newRef(bytes, ways, lineBytes)
	wayOf := map[msg.Addr]Way{} // the way each line was filled into
	if reversed {
		for s := ref.numSets - 1; s >= 0; s-- {
			addr := msg.Addr(s * lineBytes)
			_, wayOf[addr], _ = c.Insert(addr, Shared)
			ref.insert(addr, Shared)
		}
	}
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
		switch op := rng.Intn(12); {
		case op < 3:
			st := State(1 + rng.Intn(2))
			l, w, v := c.Insert(addr, st)
			rl, rv, evicted := ref.insert(addr, st)
			wayOf[ref.align(addr)] = w
			if v != rv {
				t.Fatalf("seed %d step %d: victim %+v, want %+v", seed, step, v, rv)
			}
			if evicted && v.State == Invalid {
				t.Fatalf("seed %d step %d: evicted resident line %+v reads as nothing displaced", seed, step, v)
			}
			same(step, "insert", l, rl)
			// Dirty the line identically so later victims carry state,
			// and mark an L1 subline so refills show they keep the mask.
			bit := uint8(1) << (step % 8)
			l.Dirty, l.Version, l.Grant, l.L1 = true, uint64(step), uint64(seed), l.L1|bit
			rl.Dirty, rl.Version, rl.Grant, rl.L1 = true, uint64(step), uint64(seed), rl.L1|bit
		case op < 5:
			l, w := c.LookupWay(addr)
			same(step, "lookup", l, ref.lookup(addr))
			if l != nil && w != wayOf[l.Addr] {
				t.Fatalf("seed %d step %d: lookup found way %#x, filled into %#x", seed, step, w, wayOf[l.Addr])
			}
		case op < 7:
			l, w := c.TouchWay(addr)
			same(step, "touch", l, ref.touch(addr))
			if l != nil && w != wayOf[l.Addr] {
				t.Fatalf("seed %d step %d: touch found way %#x, filled into %#x", seed, step, w, wayOf[l.Addr])
			}
		case op < 9:
			if v, rv := c.Invalidate(addr), ref.invalidate(addr); v != rv {
				t.Fatalf("seed %d step %d: invalidate %+v, want %+v", seed, step, v, rv)
			}
		case op < 11:
			if ref.lookup(addr) != nil {
				same(step, "touch at way", c.TouchAt(wayOf[ref.align(addr)]), ref.touch(addr))
			}
		default:
			if ref.lookup(addr) != nil {
				if v, rv := c.InvalidateAt(wayOf[ref.align(addr)]), ref.invalidate(addr); v != rv {
					t.Fatalf("seed %d step %d: invalidate at way %+v, want %+v", seed, step, v, rv)
				}
			}
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
