// Package cache implements the set-associative caches of the modeled node
// (Table 1): the L2 unified cache, with MESI-style line states at the
// coherence granularity and LRU replacement, and the Array every other
// set-associative structure is built from, the L1 data cache among them
// (a presence array of L2 ways; see Line.L1).
package cache

import "pccsim/internal/msg"

// State is the coherence state of a cached line as seen by the processor
// side of the protocol. Exclusive and Modified collapse into Excl with a
// dirty bit, matching the EXCL state of the SGI protocol in the paper.
type State uint8

const (
	Invalid State = iota
	Shared
	Excl
)

var stateNames = [...]string{Invalid: "I", Shared: "S", Excl: "E"}

func (s State) String() string { return stateNames[s] }

// Line is one cache line.
type Line struct {
	Addr    msg.Addr // line-aligned address; valid only when State != Invalid
	Version uint64   // abstract data value for runtime invariant checks
	Grant   uint64   // ownership epoch of an Excl copy (msg.Message.GrantTxn)
	State   State
	Dirty   bool
	// Streak counts consecutive pushed updates applied to this copy
	// since the last local read (the hybrid update/invalidate
	// protocol's sharer-stability test; always 0 elsewhere). Insert
	// resets it: a fresh fill starts a fresh streak.
	Streak uint8
	// L1 marks the L1 sublines filled from this line: the i-th
	// L1-line-sized subline sets bit i mod 8. Back-invalidation for
	// inclusion removes only the marked sublines. A bit stays set after
	// the L1 evicts its subline, so a marked subline may be absent;
	// every present one is marked. Insert keeps the mask when it
	// refills the line in place.
	L1 uint8
}

// Cache is a set-associative cache. It is a pure state container: timing
// and protocol actions live in the controllers that use it. Its storage
// is allocated on first touch (see Array).
type Cache struct {
	lines *Array[Line]
}

// New creates a cache of totalBytes capacity with the given associativity
// and line size. The geometry must satisfy SetCount: a power-of-two
// line size, totalBytes a multiple of ways*lineBytes, and a power-of-two
// set count.
func New(totalBytes, ways, lineBytes int) *Cache {
	sets, err := SetCount(totalBytes, ways, lineBytes)
	if err != nil {
		panic("cache: " + err.Error())
	}
	return &Cache{lines: NewArray[Line](sets, ways, lineBytes)}
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.lines.LineBytes() }

// Align returns the line-aligned address containing addr.
func (c *Cache) Align(addr msg.Addr) msg.Addr {
	return addr &^ msg.Addr(c.lines.LineBytes()-1)
}

// Lookup returns the line holding addr, or nil. It does not update LRU
// state; use Touch for accesses that should refresh recency.
func (c *Cache) Lookup(addr msg.Addr) *Line { return c.lines.Lookup(uint64(addr)) }

// LookupWay is Lookup that also returns the line's way.
func (c *Cache) LookupWay(addr msg.Addr) (*Line, Way) { return c.lines.LookupWay(uint64(addr)) }

// Touch marks addr most recently used if present and returns its line.
func (c *Cache) Touch(addr msg.Addr) *Line { return c.lines.Touch(uint64(addr)) }

// TouchWay is Touch that also returns the line's way.
func (c *Cache) TouchWay(addr msg.Addr) (*Line, Way) { return c.lines.TouchWay(uint64(addr)) }

// TouchAt marks the resident line in way w most recently used and
// returns it, with no search (see Array.TouchAt).
func (c *Cache) TouchAt(w Way) *Line { return c.lines.TouchAt(w) }

// Insert places addr into the cache in the given state, evicting the LRU
// line of the set if necessary, and returns the new line, its way and
// the displaced line (State == Invalid when no valid line was
// displaced). If the address is already present its line is reused in
// place, keeping its L1 mask.
func (c *Cache) Insert(addr msg.Addr, st State) (*Line, Way, Line) {
	l, w, prior := c.lines.FillWay(uint64(addr), nil)
	var victim Line
	var mask uint8
	switch prior {
	case WasEvicted:
		victim = *l
	case WasPresent:
		mask = l.L1
	}
	*l = Line{Addr: c.Align(addr), State: st, L1: mask}
	return l, w, victim
}

// Invalidate removes addr from the cache, returning the line's prior
// contents (State == Invalid if it was not present).
func (c *Cache) Invalidate(addr msg.Addr) Line {
	l := c.lines.Remove(uint64(addr))
	if l == nil {
		return Line{}
	}
	v := *l
	*l = Line{}
	return v
}

// InvalidateAt removes the resident line in way w with no search and
// returns its prior contents.
func (c *Cache) InvalidateAt(w Way) Line {
	l := c.lines.RemoveAt(w)
	v := *l
	*l = Line{}
	return v
}

// Count returns the number of valid lines (test and debugging aid).
func (c *Cache) Count() int { return c.lines.Count() }

// ForEach calls fn for every valid line, in set order.
func (c *Cache) ForEach(fn func(*Line)) { c.lines.ForEach(fn) }
