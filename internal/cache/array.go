package cache

import (
	"fmt"
	"math/bits"
)

// chunkSets is the number of sets allocated together on first touch.
// Smaller chunks track a sparse footprint more closely; larger ones
// shrink the per-array chunk directory.
const chunkSets = 16

// SetCount returns the set count of an array holding capacity bytes in ways
// of lineBytes-byte lines, or an error naming the first geometry rule
// the sizes break: every size positive, a power-of-two line size, a
// capacity that divides into ways × lines, and a power-of-two set count.
func SetCount(capacity, ways, lineBytes int) (int, error) {
	switch {
	case capacity <= 0 || ways <= 0 || lineBytes <= 0:
		return 0, fmt.Errorf("sizes must be positive (capacity %d, %d ways, %d-byte lines)",
			capacity, ways, lineBytes)
	case !pow2(lineBytes):
		return 0, fmt.Errorf("line size %d is not a power of two", lineBytes)
	case capacity%lineBytes != 0 || (capacity/lineBytes)%ways != 0:
		return 0, fmt.Errorf("%d bytes not divisible into %d ways of %d-byte lines",
			capacity, ways, lineBytes)
	}
	sets := capacity / lineBytes / ways
	if !pow2(sets) {
		return 0, fmt.Errorf("set count %d is not a power of two", sets)
	}
	return sets, nil
}

func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Prior reports what the way Array.Fill claimed held before.
type Prior uint8

const (
	// WasEmpty: the way was invalid.
	WasEmpty Prior = iota
	// WasPresent: the way already held the address; its payload is intact.
	WasPresent
	// WasEvicted: the way held another line, which the payload still holds.
	WasEvicted
	// AllPinned: every way of the set is pinned; nothing was changed.
	AllPinned
)

// chunk is chunkSets consecutive sets (or all sets, if fewer): a tag
// word per way followed by an LRU stamp per way, and the payloads.
// Until a chunk is filled, its words are the array's shared all-invalid
// slice and it has no payloads.
type chunk[T any] struct {
	words []uint64
	vals  []T
}

// Array is the one set-associative array behind a modeled node's L1 and
// L2 caches, its remote access cache and its directory cache: T payloads
// indexed by address. The simulated geometry is the caller's (Table 1
// sizes every node's structures in full); what Array decides is how much
// host memory that geometry costs.
//
// Storage is allocated on first touch. Sets live in fixed-size chunks,
// and a chunk is allocated the first time one of its ways is filled; a
// lookup in a chunk that was never filled is a miss and allocates
// nothing. Each chunk keeps one tag word per way, the line number plus
// one, so the zero word is the invalid way, beside a dense array of LRU
// stamps and apart from the payloads. A lookup reads only tags (a 4-way
// set's tags are 32 bytes, within one host cache line), and the set index
// is a shift and a mask.
//
// Replacement is least recently used: every fill and touch stamps its
// way with a fresh clock value. A caller that must keep some entries
// resident (the RAC's pinned surrogate-memory lines) passes a predicate
// that Fill consults on the eviction path.
type Array[T any] struct {
	lineShift  uint
	chunkShift uint
	setMask    uint64
	chunkMask  uint64
	ways       int
	span       int // ways per chunk
	chunks     []chunk[T]
	clock      uint64
}

// NewArray returns an array of sets × ways lines of lineBytes bytes. The
// geometry must satisfy SetCount; NewArray panics otherwise.
func NewArray[T any](sets, ways, lineBytes int) *Array[T] {
	if _, err := SetCount(sets*ways*lineBytes, ways, lineBytes); err != nil {
		panic("cache: " + err.Error())
	}
	per := min(sets, chunkSets)
	a := &Array[T]{
		lineShift:  uint(bits.TrailingZeros(uint(lineBytes))),
		chunkShift: uint(bits.TrailingZeros(uint(per))),
		setMask:    uint64(sets - 1),
		chunkMask:  uint64(per - 1),
		ways:       ways,
		span:       per * ways,
		chunks:     make([]chunk[T], sets/per),
	}
	untouched := make([]uint64, a.span)
	for c := range a.chunks {
		a.chunks[c].words = untouched
	}
	return a
}

// Sets returns the number of sets.
func (a *Array[T]) Sets() int { return int(a.setMask) + 1 }

// Ways returns the associativity.
func (a *Array[T]) Ways() int { return a.ways }

// LineBytes returns the line size.
func (a *Array[T]) LineBytes() int { return 1 << a.lineShift }

// locate returns addr's tag word, its chunk and the set's first way
// within the chunk. Shift counts are masked so they compile to bare
// shifts.
func (a *Array[T]) locate(addr uint64) (tag uint64, ch *chunk[T], base int) {
	line := addr >> (a.lineShift & 63)
	set := line & a.setMask
	return line + 1, &a.chunks[set>>(a.chunkShift&63)], int(set&a.chunkMask) * a.ways
}

// find returns the chunk and way holding addr, or a nil chunk. It
// spells out locate so that it stays within the inliner's budget.
func (a *Array[T]) find(addr uint64) (*chunk[T], int) {
	line := addr >> (a.lineShift & 63)
	set := line & a.setMask
	ch := &a.chunks[set>>(a.chunkShift&63)]
	base := int(set&a.chunkMask) * a.ways
	for i, t := range ch.words[base : base+a.ways] {
		if t == line+1 {
			return ch, base + i
		}
	}
	return nil, 0
}

// Lookup returns the payload of addr's line, or nil. It does not refresh
// recency.
func (a *Array[T]) Lookup(addr uint64) *T {
	ch, i := a.find(addr)
	if ch == nil {
		return nil
	}
	return &ch.vals[i]
}

// Touch returns the payload of addr's line, or nil, and marks the line
// most recently used.
func (a *Array[T]) Touch(addr uint64) *T {
	ch, i := a.find(addr)
	if ch == nil {
		return nil
	}
	a.clock++
	ch.words[a.span+i] = a.clock
	return &ch.vals[i]
}

// Fill claims a way for addr and marks it most recently used: the way
// already holding addr, else the set's first invalid way, else its least
// recently used way that pinned (if non-nil) does not report. It returns
// the way's payload, untouched, and what the way held before; when every
// way is pinned
// (AllPinned) the payload is nil and nothing changed.
func (a *Array[T]) Fill(addr uint64, pinned func(*T) bool) (*T, Prior) {
	tag, ch, base := a.locate(addr)
	if ch.vals == nil {
		ch.words = make([]uint64, 2*a.span)
		ch.vals = make([]T, a.span)
	}
	tags, uses := ch.words[base:base+a.ways], ch.words[a.span+base:a.span+base+a.ways]
	vals := ch.vals[base : base+a.ways]
	slot, prior := -1, WasEmpty
	for i, t := range tags {
		if t == tag {
			slot, prior = i, WasPresent
			break
		}
		if slot < 0 && t == 0 {
			slot = i
		}
	}
	if slot < 0 {
		for i, u := range uses {
			if pinned != nil && pinned(&vals[i]) {
				continue
			}
			if slot < 0 || u < uses[slot] {
				slot = i
			}
		}
		if slot < 0 {
			return nil, AllPinned
		}
		prior = WasEvicted
	}
	a.clock++
	tags[slot] = tag
	uses[slot] = a.clock
	return &vals[slot], prior
}

// Remove invalidates addr's way and returns its payload, untouched, or
// nil if addr is not present.
func (a *Array[T]) Remove(addr uint64) *T {
	ch, i := a.find(addr)
	if ch == nil {
		return nil
	}
	ch.words[i] = 0
	ch.words[a.span+i] = 0
	return &ch.vals[i]
}

// ForEach calls fn on the payload of every valid way, in set order and
// way order within a set.
func (a *Array[T]) ForEach(fn func(*T)) {
	for c := range a.chunks {
		ch := &a.chunks[c]
		for i, t := range ch.words[:a.span] {
			if t != 0 {
				fn(&ch.vals[i])
			}
		}
	}
}

// Count returns the number of valid ways.
func (a *Array[T]) Count() int {
	n := 0
	a.ForEach(func(*T) { n++ })
	return n
}
