package mcheck

import (
	"sync"
	"sync/atomic"
)

// visitedTable is the exploration's dedup set: a sharded, open-addressed
// hash table of 64-bit state fingerprints, following the internal/addrtab
// idiom (Fibonacci-hash probe start, linear probing, 3/4-load growth). It
// replaces the map[string]struct{} visited set of the serial checker:
// probes touch a flat uint64 array — no key allocation, no string
// hashing — and sharding by fingerprint lets workers probe disjoint
// regions without contending on one lock. The keys come from
// fingerprint (canon.go), which hashes a word at a time with a full
// avalanche after each, so the top bits that pick a shard and the low bits
// that start a probe are both well mixed. The table's growth is the only
// allocation of a dedup probe.
//
// Storing fingerprints instead of full encodings is hash compaction: two
// distinct states colliding at 64 bits would be merged silently. At
// model-checking scale (~10^7 states) the collision probability is below
// 10^-5, and because fingerprints are deterministic the serial and
// parallel engines agree exactly even then.
type visitedTable struct {
	shards   []visitedShard
	mask     uint64
	inserted atomic.Int64
}

type visitedShard struct {
	mu    sync.Mutex
	keys  []uint64 // 0 = empty
	count int
	// Pad shards to their own cache lines; the mutexes are hot.
	_ [40]byte
}

const visitedFib = 0x9E3779B97F4A7C15

// newVisitedTable sizes the table with `shards` rounded up to a power of
// two. Shard selection uses the top fingerprint bits, probe position the
// low bits, so the two are independent.
func newVisitedTable(shards int) *visitedTable {
	n := 1
	for n < shards {
		n <<= 1
	}
	t := &visitedTable{shards: make([]visitedShard, n), mask: uint64(n - 1)}
	for i := range t.shards {
		t.shards[i].keys = make([]uint64, 1024)
	}
	return t
}

func (t *visitedTable) shardOf(fp uint64) *visitedShard {
	return &t.shards[(fp>>48)&t.mask]
}

// insertBatch probes-and-inserts a batch of fingerprints, writing
// fresh[i] = true when fps[i] was not already present. The batch is
// processed shard by shard — each shard's lock is taken at most once per
// call — using seen as scratch (len(seen) >= len(fps), all false on
// entry; restored to false on return).
func (t *visitedTable) insertBatch(fps []uint64, fresh, seen []bool) {
	added := 0
	for i := range fps {
		if seen[i] {
			continue
		}
		sh := t.shardOf(fps[i])
		sh.mu.Lock()
		for j := i; j < len(fps); j++ {
			if !seen[j] && t.shardOf(fps[j]) == sh {
				seen[j] = true
				fresh[j] = sh.insert(fps[j])
				if fresh[j] {
					added++
				}
			}
		}
		sh.mu.Unlock()
	}
	for i := range seen[:len(fps)] {
		seen[i] = false
	}
	if added > 0 {
		t.inserted.Add(int64(added))
	}
}

// insert adds fp (never 0; fingerprint remaps 0) and reports whether it
// was new. Caller holds the shard lock.
func (sh *visitedShard) insert(fp uint64) bool {
	if sh.count >= len(sh.keys)/4*3 {
		sh.grow()
	}
	mask := uint64(len(sh.keys) - 1)
	i := (fp * visitedFib) & mask
	for {
		switch sh.keys[i] {
		case 0:
			sh.keys[i] = fp
			sh.count++
			return true
		case fp:
			return false
		}
		i = (i + 1) & mask
	}
}

func (sh *visitedShard) grow() {
	old := sh.keys
	sh.keys = make([]uint64, len(old)*2)
	mask := uint64(len(sh.keys) - 1)
	for _, fp := range old {
		if fp == 0 {
			continue
		}
		i := (fp * visitedFib) & mask
		for sh.keys[i] != 0 {
			i = (i + 1) & mask
		}
		sh.keys[i] = fp
	}
}

// size returns the total entries inserted so far (safe to read while
// workers run).
func (t *visitedTable) size() int { return int(t.inserted.Load()) }
