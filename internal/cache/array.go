package cache

import (
	"fmt"
	"math/bits"
)

// chunkSets is the number of set blocks in one storage page. Smaller
// pages track a sparse footprint more closely; larger ones shrink the
// per-array page list.
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

// Way names one way of an array: its set block and its position in the
// block. It is what FillWay, TouchWay and LookupWay return, and it keeps
// naming the same line for as long as that line stays resident: lines
// never move between ways. The zero Way names the sentinel block.
type Way uint64

func way(b uint32, i int) Way { return Way(b)<<32 | Way(uint32(i)) }

// page is chunkSets set blocks (or all sets, if fewer). Each block is a
// tag word per way followed by an LRU stamp per way, so a 4-way set's
// eight words fill one 64-byte host cache line; the payloads sit apart,
// a block's ways side by side. Blocks are handed out in first-fill
// order, so a page holds whichever sets were filled together, not
// neighbouring ones. The sentinel page 0 has only its first block's
// tags, all zero.
type page[T any] struct {
	words []uint64
	vals  []T
}

// Array is the one set-associative array behind a modeled node's L1 and
// L2 caches, its remote access cache and its directory cache: T payloads
// indexed by address. The simulated geometry is the caller's (Table 1
// sizes every node's structures in full); what Array decides is how much
// host memory that geometry costs.
//
// Storage follows the sets a run fills. Each set has one index word
// naming its set block. A set's first fill hands it the next free
// block; blocks come from fixed-size pages allocated as they run out.
// Until then the word is 0, which names the sentinel block of page 0:
// its tags stay zero, so a lookup in a set that was never filled is an
// ordinary miss and allocates nothing. Each block keeps one tag word
// per way, the line number plus one, so the zero word is the invalid
// way, and beside the tags an LRU stamp per way. A lookup reads one
// index word and then only the set block, and the set index is a shift
// and a mask. A caller that keeps the Way of a resident line reaches it
// again with no search at all (TouchAt, RemoveAt).
//
// Replacement is least recently used: every fill and touch stamps its
// way with a fresh clock value. A caller that must keep some entries
// resident (the RAC's pinned surrogate-memory lines) passes a predicate
// that FillWay consults on the eviction path.
type Array[T any] struct {
	lineShift uint
	pageShift uint
	setMask   uint64
	blockMask uint32
	ways      int
	span      int       // ways per page
	index     []uint32  // per set: its block, page-major; 0 until filled
	pages     []page[T] // page 0 is the sentinel block alone
	next      uint32    // the block the next first fill receives; page 1 starts it
	clock     uint64
}

// NewArray returns an array of sets × ways lines of lineBytes bytes. The
// geometry must satisfy SetCount; NewArray panics otherwise.
func NewArray[T any](sets, ways, lineBytes int) *Array[T] {
	if _, err := SetCount(sets*ways*lineBytes, ways, lineBytes); err != nil {
		panic("cache: " + err.Error())
	}
	per := min(sets, chunkSets)
	return &Array[T]{
		lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
		pageShift: uint(bits.TrailingZeros(uint(per))),
		setMask:   uint64(sets - 1),
		blockMask: uint32(per - 1),
		ways:      ways,
		span:      per * ways,
		index:     make([]uint32, sets),
		pages:     []page[T]{{words: make([]uint64, ways)}},
		next:      uint32(per),
	}
}

// LineBytes returns the line size.
func (a *Array[T]) LineBytes() int { return 1 << a.lineShift }

// block returns set block b's page and the index of the block's first
// payload within it; its tags start at twice that index, its stamps one
// way count later. Shift counts are masked so they compile to bare
// shifts.
func (a *Array[T]) block(b uint32) (*page[T], int) {
	return &a.pages[b>>(a.pageShift&31)], int(b&a.blockMask) * a.ways
}

// find returns addr's way, its page and the index of its payload in the
// page (its tag is at v+base, its stamp at v+base+ways), or a nil page.
func (a *Array[T]) find(addr uint64) (w Way, pg *page[T], v, base int) {
	line := addr >> (a.lineShift & 63)
	b := a.index[line&a.setMask]
	pg, base = a.block(b)
	for i, t := range pg.words[2*base : 2*base+a.ways] {
		if t == line+1 {
			return way(b, i), pg, base + i, base
		}
	}
	return 0, nil, 0, 0
}

// at returns way w's page, payload index and block base (see find).
func (a *Array[T]) at(w Way) (pg *page[T], v, base int) {
	pg, base = a.block(uint32(w >> 32))
	return pg, base + int(uint32(w)), base
}

// Lookup returns the payload of addr's line, or nil. It does not refresh
// recency.
func (a *Array[T]) Lookup(addr uint64) *T {
	v, _ := a.LookupWay(addr)
	return v
}

// LookupWay is Lookup that also returns the line's way.
func (a *Array[T]) LookupWay(addr uint64) (*T, Way) {
	w, pg, v, _ := a.find(addr)
	if pg == nil {
		return nil, 0
	}
	return &pg.vals[v], w
}

// Touch returns the payload of addr's line, or nil, and marks the line
// most recently used.
func (a *Array[T]) Touch(addr uint64) *T {
	v, _ := a.TouchWay(addr)
	return v
}

// TouchWay is Touch that also returns the line's way.
func (a *Array[T]) TouchWay(addr uint64) (*T, Way) {
	w, pg, v, base := a.find(addr)
	if pg == nil {
		return nil, 0
	}
	a.clock++
	pg.words[v+base+a.ways] = a.clock
	return &pg.vals[v], w
}

// TouchAt marks way w most recently used and returns its payload. w must
// name a resident line; TouchAt(w) is then Touch of that line's address.
func (a *Array[T]) TouchAt(w Way) *T {
	pg, v, base := a.at(w)
	a.clock++
	pg.words[v+base+a.ways] = a.clock
	return &pg.vals[v]
}

// FillWay claims a way for addr and marks it most recently used: the way
// already holding addr, else the set's first invalid way, else its least
// recently used way that pinned (if non-nil) does not report. It returns
// the way's payload, untouched, the way, and what the way held before;
// when every way is pinned (AllPinned) the payload is nil and nothing
// changed. A set's first fill hands it the next free block.
func (a *Array[T]) FillWay(addr uint64, pinned func(*T) bool) (*T, Way, Prior) {
	line := addr >> (a.lineShift & 63)
	tag, set := line+1, line&a.setMask
	b := a.index[set]
	if b == 0 {
		if a.next&a.blockMask == 0 {
			a.pages = append(a.pages, page[T]{words: make([]uint64, 2*a.span), vals: make([]T, a.span)})
		}
		b, a.next = a.next, a.next+1
		a.index[set] = b
	}
	pg, base := a.block(b)
	words := pg.words[2*base : 2*base+2*a.ways]
	tags, uses := words[:a.ways], words[a.ways:]
	vals := pg.vals[base : base+a.ways]
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
			return nil, 0, AllPinned
		}
		prior = WasEvicted
	}
	a.clock++
	tags[slot] = tag
	uses[slot] = a.clock
	return &vals[slot], way(b, slot), prior
}

// Remove invalidates addr's way and returns its payload, untouched, or
// nil if addr is not present.
func (a *Array[T]) Remove(addr uint64) *T {
	w, pg, _, _ := a.find(addr)
	if pg == nil {
		return nil
	}
	return a.RemoveAt(w)
}

// RemoveAt invalidates way w, which must name a resident line, and
// returns its payload, untouched.
func (a *Array[T]) RemoveAt(w Way) *T {
	pg, v, base := a.at(w)
	pg.words[v+base] = 0
	pg.words[v+base+a.ways] = 0
	return &pg.vals[v]
}

// ForEach calls fn on the payload of every valid way, in set order and
// way order within a set. A never-filled set names the sentinel block,
// whose ways are all invalid.
func (a *Array[T]) ForEach(fn func(*T)) {
	for _, b := range a.index {
		pg, base := a.block(b)
		for i, t := range pg.words[2*base : 2*base+a.ways] {
			if t != 0 {
				fn(&pg.vals[base+i])
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
