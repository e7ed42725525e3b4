package runner

import (
	"sync"

	"pccsim/internal/stats"
)

// cell is one memoized simulation: the first job to claim a fingerprint
// runs it and closes done; identical jobs wait and share the result.
type cell struct {
	done  chan struct{}
	st    *stats.Stats
	steps uint64
	err   error
}

// cache is the Runner's fingerprint-keyed result memo. It is shared by
// every Run/RunOneCtx on a Runner, so duplicate cells across
// calls — and across concurrently served HTTP jobs — simulate once.
type cache struct {
	mu     sync.Mutex
	cells  map[string]*cell
	hits   uint64
	misses uint64
}

func newCache() *cache {
	return &cache{cells: make(map[string]*cell)}
}

// claim resolves key to its cell and reports whether the caller owns it.
// The first claimant for a key gets a fresh cell with owned=true and must
// eventually fill it and close done (or forget it); later claimants get
// owned=false and wait on done. A claim on an existing cell counts as a
// hit even while the owner is still simulating — the work is shared
// either way.
func (ca *cache) claim(key string) (c *cell, owned bool) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if c, ok := ca.cells[key]; ok {
		ca.hits++
		return c, false
	}
	ca.misses++
	c = &cell{done: make(chan struct{})}
	ca.cells[key] = c
	return c, true
}

// forget drops key's entry if it still maps to c, so the next claim runs
// fresh. The owner calls it when a cell ends without a reusable result
// (an interrupted run is not a result). Comparing against c keeps a slow
// forget from evicting a successor cell.
func (ca *cache) forget(key string, c *cell) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if ca.cells[key] == c {
		delete(ca.cells, key)
	}
}

func (ca *cache) len() int {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return len(ca.cells)
}

func (ca *cache) stats() (hits, misses uint64) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return ca.hits, ca.misses
}
