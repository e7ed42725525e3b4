package rac

import (
	"testing"
	"testing/quick"
	"unsafe"

	"pccsim/internal/cache"
	"pccsim/internal/msg"
)

// TestLineSize pins the L1/L2 and RAC payloads at 32 bytes: every way a
// run fills holds one.
func TestLineSize(t *testing.T) {
	if n := unsafe.Sizeof(cache.Line{}); n > 32 {
		t.Fatalf("cache.Line is %d bytes, want <= 32", n)
	}
	if n := unsafe.Sizeof(Line{}); n > 32 {
		t.Fatalf("rac.Line is %d bytes, want <= 32", n)
	}
}

func TestInsertLookup(t *testing.T) {
	r := New(32*1024, 4, 128)
	l, v, ok := r.Insert(0x4000, cache.Shared)
	if !ok || v.State != cache.Invalid {
		t.Fatalf("insert: ok=%v victim=%+v", ok, v)
	}
	l.Version = 7
	got := r.Lookup(0x4008)
	if got == nil || got.Version != 7 {
		t.Fatal("lookup within line failed")
	}
}

func TestPinnedNotEvicted(t *testing.T) {
	r := New(2*128, 2, 128) // one set, two ways
	r.Insert(0x0000, cache.Excl)
	if !r.Pin(0x0000) {
		t.Fatal("Pin failed on present line")
	}
	r.Insert(0x1000, cache.Shared)
	// Third insert must evict the unpinned 0x1000, not the pinned line.
	_, v, ok := r.Insert(0x2000, cache.Shared)
	if !ok {
		t.Fatal("insert with one unpinned way failed")
	}
	if v.State == cache.Invalid || v.Addr != 0x1000 {
		t.Fatalf("victim = %+v, want 0x1000", v)
	}
	if r.Lookup(0x0000) == nil {
		t.Fatal("pinned line was evicted")
	}
}

func TestAllWaysPinnedInsertFails(t *testing.T) {
	r := New(2*128, 2, 128)
	r.Insert(0x0000, cache.Excl)
	r.Insert(0x1000, cache.Excl)
	r.Pin(0x0000)
	r.Pin(0x1000)
	_, _, ok := r.Insert(0x2000, cache.Shared)
	if ok {
		t.Fatal("insert succeeded with every way pinned")
	}
	if r.Count() != 2 || r.PinnedCount() != 2 {
		t.Fatal("failed insert modified the cache")
	}
}

func TestReinsertKeepsPin(t *testing.T) {
	r := New(2*128, 2, 128)
	r.Insert(0x0000, cache.Shared)
	r.Pin(0x0000)
	l, _, ok := r.Insert(0x0000, cache.Excl)
	if !ok || !l.Pinned {
		t.Fatalf("reinsert dropped pin: ok=%v line=%+v", ok, l)
	}
	if l.State != cache.Excl {
		t.Fatal("reinsert did not update state")
	}
}

func TestUnpinAllowsEviction(t *testing.T) {
	r := New(128, 1, 128)
	r.Insert(0x0000, cache.Excl)
	r.Pin(0x0000)
	if _, _, ok := r.Insert(0x1000, cache.Shared); ok {
		t.Fatal("insert over pinned direct-mapped entry succeeded")
	}
	r.Lookup(0x0000).Pinned = false
	if _, _, ok := r.Insert(0x1000, cache.Shared); !ok {
		t.Fatal("insert after unpin failed")
	}
}

func TestPinAbsent(t *testing.T) {
	r := New(1024, 4, 128)
	if r.Pin(0x5000) {
		t.Fatal("Pin of absent address reported success")
	}
}

func TestInvalidate(t *testing.T) {
	r := New(1024, 4, 128)
	l, _, _ := r.Insert(0x100, cache.Excl)
	l.Dirty = true
	l.Version = 3
	v := r.Invalidate(0x100)
	if v.State == cache.Invalid || !v.Dirty || v.Version != 3 {
		t.Fatalf("victim = %+v", v)
	}
	if r.Lookup(0x100) != nil {
		t.Fatal("still present after Invalidate")
	}
}

func TestLRUAmongUnpinned(t *testing.T) {
	r := New(4*128, 4, 128)
	for i := 0; i < 4; i++ {
		r.Insert(msg.Addr(i)*0x1000, cache.Shared)
	}
	r.Pin(0x0000)
	r.Touch(0x1000) // 0x2000 becomes LRU among unpinned
	_, v, _ := r.Insert(0x9000, cache.Shared)
	if v.Addr != 0x2000 {
		t.Fatalf("evicted %#x, want 0x2000", uint64(v.Addr))
	}
}

// TestCapacity: a 32 KB RAC of 128-byte lines holds 256 consecutive lines
// without an eviction and evicts on the 257th.
func TestCapacity(t *testing.T) {
	r := New(32*1024, 4, 128)
	for a := msg.Addr(0); a < 32*1024; a += 128 {
		if _, v, ok := r.Insert(a, cache.Shared); !ok || v.State != cache.Invalid {
			t.Fatalf("insert %#x: ok=%v victim %+v", uint64(a), ok, v)
		}
	}
	if r.Count() != 256 {
		t.Fatalf("Count = %d, want 256", r.Count())
	}
	if _, v, _ := r.Insert(32*1024, cache.Shared); v.State == cache.Invalid {
		t.Fatal("insert past capacity evicted nothing")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for bad geometry")
		}
	}()
	New(100, 3, 128)
}

// Property: pinned entries survive arbitrary insert storms; Count never
// exceeds capacity; no duplicate addresses.
func TestPropertyPinnedSurvive(t *testing.T) {
	f := func(addrs []uint16) bool {
		r := New(8*2*128, 2, 128)
		r.Insert(0x0, cache.Excl)
		r.Pin(0x0)
		r.Insert(0x80*3, cache.Excl)
		r.Pin(0x80 * 3)
		for _, a := range addrs {
			r.Insert(msg.Addr(a)*128, cache.Shared)
		}
		if r.Lookup(0x0) == nil || r.Lookup(0x80*3) == nil {
			return false
		}
		if r.Count() > 16 {
			return false
		}
		seen := map[msg.Addr]bool{}
		dup := false
		r.ForEach(func(l *Line) {
			if seen[l.Addr] {
				dup = true
			}
			seen[l.Addr] = true
		})
		return !dup
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
