// Package mem models the distributed main memory of the cc-NUMA system:
// page-granular data placement (SGI's first-touch policy, §3.2), per-line
// abstract data versions used for runtime coherence checking, and DRAM
// access timing.
package mem

import (
	"sync"

	"pccsim/internal/msg"
)

// Policy selects how pages are assigned home nodes.
type Policy uint8

const (
	// FirstTouch homes a page at the first node that accesses it (the
	// paper's placement policy, "very effective in allocating data to
	// processors that use them").
	FirstTouch Policy = iota
	// RoundRobin stripes pages across nodes (used for ablations and to
	// stress 3-hop paths in tests).
	RoundRobin
)

// Memory is the global memory image: page homes and line versions. One
// Memory is shared by all nodes of a simulated system. On a sharded
// system whose shards run on worker goroutines the page table is
// consulted concurrently, so lookups take a read-lock once sharing is
// enabled (EnableSharedAccess); a system that runs on one goroutine
// stays lock-free.
type Memory struct {
	mu        sync.RWMutex
	shared    bool
	policy    Policy
	pageBytes uint64
	nodes     int
	pages     map[uint64]msg.NodeID
	rrNext    int
}

// New creates a memory with the given placement policy over nodes nodes.
func New(policy Policy, nodes, pageBytes int) *Memory {
	if nodes <= 0 {
		panic("mem: need at least one node")
	}
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic("mem: page size must be a positive power of two")
	}
	return &Memory{
		policy:    policy,
		pageBytes: uint64(pageBytes),
		nodes:     nodes,
		pages:     make(map[uint64]msg.NodeID),
	}
}

// PageBytes returns the placement granularity.
func (m *Memory) PageBytes() int { return int(m.pageBytes) }

// EnableSharedAccess arms the page-table lock; call before any
// concurrent use. First-touch assignment remains well-defined under
// concurrency only when no two nodes race to first-touch the same page —
// the workloads guarantee that by separating placement phases with
// barriers and padding per-owner data to whole pages.
func (m *Memory) EnableSharedAccess() { m.shared = true }

// Home returns the home node of addr, assigning it on first touch by
// toucher (first-touch policy) or round-robin, per the configured policy.
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
		if h, ok := m.pages[page]; ok {
			return h
		}
		return m.assignLocked(page, toucher)
	}
	if h, ok := m.pages[page]; ok {
		return h
	}
	return m.assignLocked(page, toucher)
}

// assignLocked applies the placement policy to an untouched page; the
// caller holds the write lock in shared mode.
func (m *Memory) assignLocked(page uint64, toucher msg.NodeID) msg.NodeID {
	var h msg.NodeID
	switch m.policy {
	case FirstTouch:
		h = toucher
	case RoundRobin:
		h = msg.NodeID(m.rrNext % m.nodes)
		m.rrNext++
	}
	m.pages[page] = h
	return h
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

// Place explicitly homes the page containing addr at node (used by
// workloads that model an initialized data distribution).
func (m *Memory) Place(addr msg.Addr, node msg.NodeID) {
	if m.shared {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	m.pages[uint64(addr)/m.pageBytes] = node
}

// PlaceRange homes every page overlapping [addr, addr+n) at node.
func (m *Memory) PlaceRange(addr msg.Addr, n int, node msg.NodeID) {
	if m.shared {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	first := uint64(addr) / m.pageBytes
	last := (uint64(addr) + uint64(n) - 1) / m.pageBytes
	for p := first; p <= last; p++ {
		m.pages[p] = node
	}
}

// Pages returns how many pages have been placed.
func (m *Memory) Pages() int {
	if m.shared {
		m.mu.RLock()
		defer m.mu.RUnlock()
	}
	return len(m.pages)
}
