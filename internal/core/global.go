package core

import (
	"fmt"
	"sort"
	"sync"

	"pccsim/internal/addrtab"
	"pccsim/internal/msg"
)

// global holds system-wide simulation state shared by all hubs: the
// abstract data-version oracle used for runtime coherence checking. Every
// store to a line advances its version; the protocol carries versions in
// data-bearing messages, and the invariant checker verifies that no node
// ever observes versions moving backwards and that a writer always holds
// the latest version when it writes (the simulator-side checks of §2.5).
//
// On a sharded system whose shards run on worker goroutines, hubs on
// different shards write concurrently, so the oracle takes a mutex — but
// only when sharing is enabled, keeping single-goroutine runs lock-free.
type global struct {
	mu       sync.Mutex
	shared   bool
	latest   addrtab.Table[uint64]  // newest written version, per line
	observed map[observedKey]uint64 // highest version each node has seen, per line
	check    bool
}

type observedKey struct {
	node msg.NodeID
	addr msg.Addr
}

func newGlobal(check bool) *global {
	g := &global{check: check}
	if check {
		g.observed = make(map[observedKey]uint64)
	}
	return g
}

// enableSharing arms the mutex; call before any concurrent access.
func (g *global) enableSharing() { g.shared = true }

// write records a store by node to addr whose cached copy held version
// held, returning the new version. Under SWMR the writer must hold the
// latest version; a mismatch is a coherence bug.
func (g *global) write(node msg.NodeID, addr msg.Addr, held uint64) uint64 {
	if g.shared {
		g.mu.Lock()
		defer g.mu.Unlock()
	}
	v, _ := g.latest.Slot(uint64(addr))
	if g.check && held != *v {
		panic(fmt.Sprintf("core: node %d writes %#x holding version %d, latest is %d (stale-write coherence violation)",
			node, uint64(addr), held, *v))
	}
	*v++
	return *v
}

// observe records that node read version v of addr and checks monotonicity:
// a node that has seen version n must never later read version < n.
func (g *global) observe(node msg.NodeID, addr msg.Addr, v uint64) {
	if !g.check {
		return
	}
	if g.shared {
		g.mu.Lock()
		defer g.mu.Unlock()
	}
	k := observedKey{node, addr}
	if prev, ok := g.observed[k]; ok && v < prev {
		panic(fmt.Sprintf("core: node %d observed version %d of %#x after version %d (coherence went backwards)",
			node, v, uint64(addr), prev))
	}
	g.observed[k] = v
}

// latestVersion reports the newest written version of addr (0 if never
// written).
func (g *global) latestVersion(addr msg.Addr) uint64 {
	if g.shared {
		g.mu.Lock()
		defer g.mu.Unlock()
	}
	v, _ := g.latest.Get(uint64(addr))
	return v
}

// writtenLines returns every line the oracle has seen written, in address
// order (deterministic for error reporting).
func (g *global) writtenLines() []msg.Addr {
	if g.shared {
		g.mu.Lock()
		defer g.mu.Unlock()
	}
	out := make([]msg.Addr, 0, g.latest.Len())
	g.latest.Range(func(a, _ uint64) bool {
		out = append(out, msg.Addr(a))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
