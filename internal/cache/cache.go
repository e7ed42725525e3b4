// Package cache implements the set-associative caches of the modeled node:
// L1 data cache and L2 unified cache (Table 1), with MESI-style line states
// at L2 coherence granularity, LRU replacement, and back-invalidation
// support for inclusion.
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
}

// Victim describes a line evicted by Insert.
type Victim struct {
	Valid   bool
	Addr    msg.Addr
	State   State
	Dirty   bool
	Version uint64
	Grant   uint64
}

func victimOf(l *Line) Victim {
	return Victim{Valid: true, Addr: l.Addr, State: l.State, Dirty: l.Dirty,
		Version: l.Version, Grant: l.Grant}
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

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.lines.Sets() }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.lines.Ways() }

// Align returns the line-aligned address containing addr.
func (c *Cache) Align(addr msg.Addr) msg.Addr {
	return addr &^ msg.Addr(c.lines.LineBytes()-1)
}

// Lookup returns the line holding addr, or nil. It does not update LRU
// state; use Touch for accesses that should refresh recency.
func (c *Cache) Lookup(addr msg.Addr) *Line { return c.lines.Lookup(uint64(addr)) }

// Touch marks addr most recently used if present and returns its line.
func (c *Cache) Touch(addr msg.Addr) *Line { return c.lines.Touch(uint64(addr)) }

// Insert places addr into the cache in the given state, evicting the LRU
// line of the set if necessary, and returns the new line plus the victim
// (Victim.Valid reports whether a valid line was displaced). If the address
// is already present its line is reused in place.
func (c *Cache) Insert(addr msg.Addr, st State) (*Line, Victim) {
	l, prior := c.lines.Fill(uint64(addr), nil)
	var victim Victim
	if prior == WasEvicted {
		victim = victimOf(l)
	}
	*l = Line{Addr: c.Align(addr), State: st}
	return l, victim
}

// Invalidate removes addr from the cache, returning the line's prior
// contents as a Victim (Valid=false if it was not present).
func (c *Cache) Invalidate(addr msg.Addr) Victim {
	l := c.lines.Remove(uint64(addr))
	if l == nil {
		return Victim{}
	}
	v := victimOf(l)
	*l = Line{}
	return v
}

// InvalidateRange removes every line overlapping [addr, addr+n) — used for
// back-invalidating L1 lines when their containing L2 line leaves.
func (c *Cache) InvalidateRange(addr msg.Addr, n int) {
	for a := c.Align(addr); a < addr+msg.Addr(n); a += msg.Addr(c.lines.LineBytes()) {
		c.Invalidate(a)
	}
}

// Count returns the number of valid lines (test and debugging aid).
func (c *Cache) Count() int { return c.lines.Count() }

// ForEach calls fn for every valid line, in set order.
func (c *Cache) ForEach(fn func(*Line)) { c.lines.ForEach(fn) }
