// Package rac implements the remote access cache of §2.1: a per-hub cache
// for remote data that plays three roles. It is (1) a victim cache for
// remote lines evicted from the processor caches, (2) the landing zone for
// speculative updates pushed by producers — the location researchers usually
// assume can be "pushed into the processor cache", which real processors do
// not allow — and (3) a surrogate main memory for lines delegated to this
// node: for each delegated line the corresponding RAC entry is pinned.
package rac

import (
	"pccsim/internal/cache"
	"pccsim/internal/msg"
)

// Line is one RAC entry.
type Line struct {
	Addr    msg.Addr
	Version uint64
	Grant   uint64      // ownership epoch for Excl victim copies
	State   cache.State // Shared (clean copy) or Excl (owner copy)
	Dirty   bool
	Pinned  bool // surrogate-memory entry for a delegated line
	// FromUpdate marks data that arrived via a speculative push;
	// Consumed is set at the first local read, letting the statistics
	// distinguish useful updates from wasted ones.
	FromUpdate bool
	Consumed   bool
}

// RAC is a set-associative remote access cache with entry pinning. Its
// storage is allocated on first touch (see cache.Array).
type RAC struct {
	lines *cache.Array[Line]
}

// New creates a RAC of totalBytes capacity. Geometry rules match
// cache.New (cache.SetCount).
func New(totalBytes, ways, lineBytes int) *RAC {
	sets, err := cache.SetCount(totalBytes, ways, lineBytes)
	if err != nil {
		panic("rac: " + err.Error())
	}
	return &RAC{lines: cache.NewArray[Line](sets, ways, lineBytes)}
}

// Lookup returns the entry for addr, or nil.
func (r *RAC) Lookup(addr msg.Addr) *Line { return r.lines.Lookup(uint64(addr)) }

// LookupWay is Lookup that also returns the entry's way.
func (r *RAC) LookupWay(addr msg.Addr) (*Line, cache.Way) { return r.lines.LookupWay(uint64(addr)) }

// Touch refreshes recency for addr and returns its entry.
func (r *RAC) Touch(addr msg.Addr) *Line { return r.lines.Touch(uint64(addr)) }

func pinned(l *Line) bool { return l.Pinned }

// Insert places addr in the RAC, evicting the LRU unpinned entry of the set
// if needed, and returns the new entry plus the displaced one (State ==
// cache.Invalid when no valid entry was displaced). It reports ok=false —
// without modifying the cache — when every way of the set is pinned,
// which is the signal that a delegation must be dropped before more
// delegated lines can be pinned here.
func (r *RAC) Insert(addr msg.Addr, st cache.State) (*Line, Line, bool) {
	l, _, prior := r.lines.FillWay(uint64(addr), pinned)
	var victim Line
	switch prior {
	case cache.AllPinned:
		return nil, Line{}, false
	case cache.WasEvicted:
		victim = *l
	}
	keep := prior == cache.WasPresent && l.Pinned
	*l = Line{Addr: addr &^ msg.Addr(r.lines.LineBytes()-1), State: st, Pinned: keep}
	return l, victim, true
}

// Pin marks addr as a surrogate-memory entry that Insert may not evict.
// It reports false if addr is not present.
func (r *RAC) Pin(addr msg.Addr) bool {
	l := r.Lookup(addr)
	if l == nil {
		return false
	}
	l.Pinned = true
	return true
}

// Invalidate removes addr, returning its prior contents (State ==
// cache.Invalid if it was not present).
func (r *RAC) Invalidate(addr msg.Addr) Line {
	l := r.lines.Remove(uint64(addr))
	if l == nil {
		return Line{}
	}
	v := *l
	*l = Line{}
	return v
}

// InvalidateAt removes the resident entry in way w with no search and
// returns its prior contents.
func (r *RAC) InvalidateAt(w cache.Way) Line {
	l := r.lines.RemoveAt(w)
	v := *l
	*l = Line{}
	return v
}

// Count returns the number of valid entries.
func (r *RAC) Count() int { return r.lines.Count() }

// PinnedCount returns the number of pinned entries.
func (r *RAC) PinnedCount() int {
	n := 0
	r.ForEach(func(l *Line) {
		if l.Pinned {
			n++
		}
	})
	return n
}

// ForEach calls fn on every valid entry, in set order.
func (r *RAC) ForEach(fn func(*Line)) { r.lines.ForEach(fn) }
