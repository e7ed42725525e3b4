package directory

import (
	"math/rand"
	"testing"

	"pccsim/internal/msg"
	"pccsim/internal/predictor"
)

// refDirCache is the dense directory cache this package used before
// storage moved to cache.Array: all 8,192 detectors allocated up
// front, parallel tag/valid/LRU arrays, and SetPairMode a loop over every
// detector. It is kept as the oracle the first-touch cache must match.
type refDirCache struct {
	numSets  int
	ways     int
	tags     []msg.Addr
	valid    []bool
	lastUse  []uint64
	dets     []predictor.Detector
	useClock uint64
	Evicts   uint64
}

func newRefDirCache(entries, ways int) *refDirCache {
	return &refDirCache{numSets: entries / ways, ways: ways, tags: make([]msg.Addr, entries),
		valid: make([]bool, entries), lastUse: make([]uint64, entries),
		dets: make([]predictor.Detector, entries)}
}

func (c *refDirCache) setPairMode(on bool) {
	for i := range c.dets {
		c.dets[i].SetPairMode(on)
	}
}

func (c *refDirCache) setBase(addr msg.Addr) int {
	return int((uint64(addr)>>7)&uint64(c.numSets-1)) * c.ways
}

func (c *refDirCache) detector(addr msg.Addr) *predictor.Detector {
	base := c.setBase(addr)
	slot := -1
	for i := base; i < base+c.ways; i++ {
		if c.valid[i] && c.tags[i] == addr {
			c.useClock++
			c.lastUse[i] = c.useClock
			return &c.dets[i]
		}
		if slot < 0 && !c.valid[i] {
			slot = i
		}
	}
	if slot < 0 {
		slot = base
		for i := base + 1; i < base+c.ways; i++ {
			if c.lastUse[i] < c.lastUse[slot] {
				slot = i
			}
		}
		c.Evicts++
	}
	c.useClock++
	c.tags[slot] = addr
	c.valid[slot] = true
	c.lastUse[slot] = c.useClock
	c.dets[slot].Reset()
	return &c.dets[slot]
}

func (c *refDirCache) resident(addr msg.Addr) bool {
	base := c.setBase(addr)
	for i := base; i < base+c.ways; i++ {
		if c.valid[i] && c.tags[i] == addr {
			return true
		}
	}
	return false
}

// TestDirCacheMatchesReference drives the first-touch directory cache
// and the dense reference through the same random Detector/Resident
// sequences, feeding every returned detector the same reads and writes
// and toggling pair mode mid-run, and requires identical detectors,
// residency and Evicts after every step.
func TestDirCacheMatchesReference(t *testing.T) {
	for _, g := range []struct{ entries, ways int }{
		{1, 1},       // one set, one way
		{4, 4},       // one set
		{16, 4},      // 4 sets: under one chunk
		{8192, 4},    // Table 1's 2,048 sets
		{256 * 2, 2}, // several chunks
	} {
		for seed := int64(1); seed <= 10; seed++ {
			c, ref := NewDirCache(g.entries, g.ways), newRefDirCache(g.entries, g.ways)
			if c.Entries() != g.entries {
				t.Fatalf("Entries = %d, want %d", c.Entries(), g.entries)
			}
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 2000; step++ {
				addr := msg.Addr(rng.Intn(3*g.entries)) << 7
				switch op := rng.Intn(8); {
				case op == 0 && rng.Intn(20) == 0:
					on := rng.Intn(2) == 0
					c.SetPairMode(on)
					ref.setPairMode(on)
				case op < 6:
					d, rd := c.Detector(addr), ref.detector(addr)
					if *d != *rd {
						t.Fatalf("%d/%d seed %d step %d: detector %+v, want %+v",
							g.entries, g.ways, seed, step, *d, *rd)
					}
					n := msg.NodeID(rng.Intn(4))
					if rng.Intn(2) == 0 {
						d.OnWrite(n)
						rd.OnWrite(n)
					} else {
						d.OnRead(n)
						rd.OnRead(n)
					}
				default:
					if c.Resident(addr) != ref.resident(addr) {
						t.Fatalf("%d/%d seed %d step %d: Resident(%#x) disagrees",
							g.entries, g.ways, seed, step, uint64(addr))
					}
				}
				if c.Evicts != ref.Evicts {
					t.Fatalf("%d/%d seed %d step %d: Evicts %d, want %d",
						g.entries, g.ways, seed, step, c.Evicts, ref.Evicts)
				}
			}
		}
	}
}
