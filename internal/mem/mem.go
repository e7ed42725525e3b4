// Package mem models the distributed main memory's page-granular data
// placement: SGI's first-touch policy (§3.2) homes a page at the first
// node that accesses it, "very effective in allocating data to
// processors that use them".
package mem

import (
	"fmt"
	"math/bits"

	"pccsim/internal/addrtab"
	"pccsim/internal/msg"
)

// Memory is the global page table, shared by all nodes of a simulated
// system: an open-addressed table keyed by page number (programs may
// place pages anywhere in the address space). A sharded system whose
// shards run on worker goroutines reads it concurrently, so it must be
// placed in full before such a run (EnableSharedAccess); from then on it
// is only read and needs no lock.
type Memory struct {
	shared    bool
	pageShift uint
	pages     addrtab.Table[msg.NodeID]
}

// New creates a first-touch memory placed in pageBytes pages.
func New(pageBytes int) *Memory {
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic("mem: page size must be a positive power of two")
	}
	return &Memory{pageShift: uint(bits.TrailingZeros(uint(pageBytes)))}
}

// PageBytes returns the placement granularity.
func (m *Memory) PageBytes() int { return 1 << m.pageShift }

// EnableSharedAccess marks the table as read concurrently: from then on
// Home no longer places a page at its first toucher but panics on an
// unplaced one. node.Machine and fault.Case place every page before a
// run, so no run reaches that panic.
func (m *Memory) EnableSharedAccess() { m.shared = true }

func (m *Memory) page(addr msg.Addr) uint64 { return uint64(addr) >> (m.pageShift & 63) }

// Home returns the home node of addr, homing an unplaced page at toucher
// (first touch). On a shared table an unplaced page panics.
func (m *Memory) Home(addr msg.Addr, toucher msg.NodeID) msg.NodeID {
	if m.shared {
		h, ok := m.pages.Get(m.page(addr))
		if !ok {
			panic(fmt.Sprintf("mem: page of %#x was not placed before a shared run", uint64(addr)))
		}
		return h
	}
	h, ok := m.pages.Slot(m.page(addr))
	if !ok {
		*h = toucher
	}
	return *h
}

// HomeIfPlaced returns the home of addr without assigning one.
func (m *Memory) HomeIfPlaced(addr msg.Addr) (msg.NodeID, bool) {
	return m.pages.Get(m.page(addr))
}

// Place homes the page containing addr at node. node.Machine.Run places
// every page its programs touch before the first event, and fault.Case
// stripes its address pool the same way. It must not run concurrently
// with lookups.
func (m *Memory) Place(addr msg.Addr, node msg.NodeID) {
	m.pages.Put(m.page(addr), node)
}
