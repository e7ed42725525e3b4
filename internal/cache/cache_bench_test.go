package cache

import (
	"testing"

	"pccsim/internal/msg"
)

// l2 returns Table 1's L2 (2 MB, 4-way, 128-byte lines) holding lines
// resident lines, one per set from set 0 up.
func l2(lines int) *Cache {
	c := New(2*1024*1024, 4, 128)
	for i := 0; i < lines; i++ {
		c.Insert(msg.Addr(i)*128, Shared)
	}
	return c
}

// BenchmarkCacheLookup measures the tag scan every processor access
// starts with: hits on resident lines, misses on absent lines in
// allocated sets, and misses in sets whose storage was never touched.
func BenchmarkCacheLookup(b *testing.B) {
	const lines = 4096
	c := l2(lines)
	for _, bc := range []struct {
		name string
		base msg.Addr
		hit  bool
	}{
		{"hit", 0, true},
		{"miss", 1 << 30, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if (c.Lookup(bc.base+msg.Addr(i&(lines-1))*128) != nil) != bc.hit {
					b.Fatal("unexpected lookup result")
				}
			}
		})
	}
	b.Run("miss-untouched", func(b *testing.B) {
		c := l2(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if c.Lookup(msg.Addr(i&(lines-1))*128) != nil {
				b.Fatal("hit in an empty cache")
			}
		}
	})
}

// BenchmarkCacheInsertEvict measures a fill into a full set: the LRU
// victim search, the victim copy and the line reset.
func BenchmarkCacheInsertEvict(b *testing.B) {
	const lines = 4 * 4096 // every way of every set
	c := l2(lines)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, v := c.Insert(msg.Addr(lines+i)*128, Excl); v.State == Invalid {
			b.Fatal("fill into a full set evicted nothing")
		}
	}
}

// TestCacheZeroAlloc pins the steady-state access path at zero
// allocations once a set's storage exists: Lookup, Touch, Insert with
// eviction, Invalidate, and the way-handle calls.
func TestCacheZeroAlloc(t *testing.T) {
	c := l2(4 * 4096)
	var i msg.Addr
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		c.Lookup(i * 128)
		c.Touch(i * 512)
		_, w, _ := c.Insert(i*128+1<<30, Excl)
		c.TouchAt(w)
		c.InvalidateAt(w)
		c.Invalidate(i * 128)
	})
	if allocs != 0 {
		t.Fatalf("steady-state access path allocates %.1f times per op, want 0", allocs)
	}
}
