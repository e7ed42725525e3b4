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

// Victim describes an entry displaced by Insert.
type Victim struct {
	Valid      bool
	Addr       msg.Addr
	State      cache.State
	Dirty      bool
	Version    uint64
	Grant      uint64
	FromUpdate bool
	Consumed   bool
}

func victimOf(l *Line) Victim {
	return Victim{Valid: true, Addr: l.Addr, State: l.State, Dirty: l.Dirty, Version: l.Version,
		Grant: l.Grant, FromUpdate: l.FromUpdate, Consumed: l.Consumed}
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

// Capacity returns total capacity in bytes.
func (r *RAC) Capacity() int { return r.lines.Sets() * r.lines.Ways() * r.lines.LineBytes() }

// Lookup returns the entry for addr, or nil.
func (r *RAC) Lookup(addr msg.Addr) *Line { return r.lines.Lookup(uint64(addr)) }

// Touch refreshes recency for addr and returns its entry.
func (r *RAC) Touch(addr msg.Addr) *Line { return r.lines.Touch(uint64(addr)) }

func pinned(l *Line) bool { return l.Pinned }

// Insert places addr in the RAC, evicting the LRU unpinned entry of the set
// if needed. It reports ok=false — without modifying the cache — when every
// way of the set is pinned, which is the signal that a delegation must be
// dropped before more delegated lines can be pinned here.
func (r *RAC) Insert(addr msg.Addr, st cache.State) (*Line, Victim, bool) {
	l, prior := r.lines.Fill(uint64(addr), pinned)
	var victim Victim
	switch prior {
	case cache.AllPinned:
		return nil, Victim{}, false
	case cache.WasEvicted:
		victim = victimOf(l)
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

// Unpin clears the pin on addr, making it evictable again.
func (r *RAC) Unpin(addr msg.Addr) {
	if l := r.Lookup(addr); l != nil {
		l.Pinned = false
	}
}

// Invalidate removes addr, returning its prior contents.
func (r *RAC) Invalidate(addr msg.Addr) Victim {
	l := r.lines.Remove(uint64(addr))
	if l == nil {
		return Victim{}
	}
	v := victimOf(l)
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
