// Package mem models the distributed main memory's page-granular data
// placement: SGI's first-touch policy (§3.2) homes a page at the first
// node that accesses it, "very effective in allocating data to
// processors that use them".
package mem

import (
	"sync"

	"pccsim/internal/msg"
)

// Memory is the global page table, shared by all nodes of a simulated
// system. On a sharded system whose shards run on worker goroutines the
// page table is consulted concurrently, so lookups take a read-lock once
// sharing is enabled (EnableSharedAccess); a system that runs on one
// goroutine stays lock-free.
type Memory struct {
	mu        sync.RWMutex
	shared    bool
	pageBytes uint64
	pages     map[uint64]msg.NodeID
}

// New creates a first-touch memory placed in pageBytes pages.
func New(pageBytes int) *Memory {
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic("mem: page size must be a positive power of two")
	}
	return &Memory{
		pageBytes: uint64(pageBytes),
		pages:     make(map[uint64]msg.NodeID),
	}
}

// PageBytes returns the placement granularity.
func (m *Memory) PageBytes() int { return int(m.pageBytes) }

// EnableSharedAccess arms the page-table lock; call before any
// concurrent use. node.Machine and fault.Case place every page before a
// run, so concurrent lookups only read; a page nobody placed is still
// homed at its first toucher.
func (m *Memory) EnableSharedAccess() { m.shared = true }

// Home returns the home node of addr, homing an unplaced page at toucher
// (first touch).
func (m *Memory) Home(addr msg.Addr, toucher msg.NodeID) msg.NodeID {
	page := uint64(addr) / m.pageBytes
	if m.shared {
		m.mu.RLock()
		h, ok := m.pages[page]
		m.mu.RUnlock()
		if ok {
			return h
		}
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	if h, ok := m.pages[page]; ok {
		return h
	}
	m.pages[page] = toucher
	return toucher
}

// HomeIfPlaced returns the home of addr without assigning one.
func (m *Memory) HomeIfPlaced(addr msg.Addr) (msg.NodeID, bool) {
	if m.shared {
		m.mu.RLock()
		defer m.mu.RUnlock()
	}
	h, ok := m.pages[uint64(addr)/m.pageBytes]
	return h, ok
}

// Place homes the page containing addr at node. node.Machine.Run places
// every page its programs touch before the first event, and fault.Case
// stripes its address pool the same way.
func (m *Memory) Place(addr msg.Addr, node msg.NodeID) {
	if m.shared {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	m.pages[uint64(addr)/m.pageBytes] = node
}
