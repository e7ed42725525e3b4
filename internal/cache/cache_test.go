package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pccsim/internal/msg"
)

func TestInsertLookup(t *testing.T) {
	c := New(4096, 4, 128) // 8 sets
	l, v := c.Insert(0x1000, Shared)
	if v.State != Invalid {
		t.Fatal("insert into empty cache evicted something")
	}
	if l.State != Shared || l.Addr != 0x1000 {
		t.Fatalf("line = %+v", l)
	}
	if got := c.Lookup(0x1004); got == nil || got.Addr != 0x1000 {
		t.Fatal("lookup within line failed")
	}
	if c.Lookup(0x2000) != nil {
		t.Fatal("lookup of absent address succeeded")
	}
}

func TestAlign(t *testing.T) {
	c := New(4096, 4, 128)
	if c.Align(0x10ff) != 0x1080 {
		t.Fatalf("Align(0x10ff) = %#x, want 0x1080", uint64(c.Align(0x10ff)))
	}
	if c.Align(0x1000) != 0x1000 {
		t.Fatal("aligned address changed by Align")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2*128, 2, 128) // 1 set, 2 ways
	c.Insert(0x0000, Shared)
	c.Insert(0x1000, Shared)
	c.Touch(0x0000) // make 0x0000 most recent
	_, v := c.Insert(0x2000, Excl)
	if v.State == Invalid || v.Addr != 0x1000 {
		t.Fatalf("victim = %+v, want eviction of 0x1000", v)
	}
	if c.Lookup(0x0000) == nil {
		t.Fatal("recently used line was evicted")
	}
}

func TestInsertExistingReuses(t *testing.T) {
	c := New(2*128, 2, 128)
	l1, _ := c.Insert(0x1000, Shared)
	l1.Dirty = true
	l2, v := c.Insert(0x1000, Excl)
	if v.State != Invalid {
		t.Fatal("reinserting existing line evicted something")
	}
	if l2.State != Excl {
		t.Fatalf("state = %v, want Excl", l2.State)
	}
	if l2.Dirty {
		t.Fatal("Insert must reset line metadata")
	}
	if c.Count() != 1 {
		t.Fatalf("Count = %d, want 1", c.Count())
	}
}

func TestVictimCarriesState(t *testing.T) {
	c := New(128, 1, 128) // direct-mapped, 1 set
	l, _ := c.Insert(0x0000, Excl)
	l.Dirty = true
	l.Version = 42
	l.Grant = 7
	// The displaced line is the resident one whole; its State (never
	// Invalid for a resident line) is what marks it as displaced.
	_, v := c.Insert(0x1000, Shared)
	if v.State != Excl || !v.Dirty || v.Version != 42 || v.Grant != 7 || v.Addr != 0 {
		t.Fatalf("victim = %+v", v)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4096, 4, 128)
	l, _ := c.Insert(0x3000, Excl)
	l.Dirty = true
	v := c.Invalidate(0x3000)
	if !v.Dirty || v.State != Excl {
		t.Fatalf("invalidate victim = %+v", v)
	}
	if c.Lookup(0x3000) != nil {
		t.Fatal("line still present after Invalidate")
	}
	if v2 := c.Invalidate(0x3000); v2.State != Invalid {
		t.Fatal("double invalidate returned valid victim")
	}
}

func TestInvalidateRange(t *testing.T) {
	// 32-byte L1 lines; invalidate one 128-byte L2 line's worth.
	c := New(4096, 2, 32)
	for a := msg.Addr(0x1000); a < 0x1080; a += 32 {
		c.Insert(a, Shared)
	}
	c.Insert(0x1080, Shared) // outside the range
	c.InvalidateRange(0x1000, 128)
	if c.Count() != 1 {
		t.Fatalf("Count = %d after range invalidate, want 1", c.Count())
	}
	if c.Lookup(0x1080) == nil {
		t.Fatal("line outside range was invalidated")
	}
}

func TestForEach(t *testing.T) {
	c := New(4096, 4, 128)
	c.Insert(0x0, Shared)
	c.Insert(0x80, Excl)
	seen := map[msg.Addr]State{}
	c.ForEach(func(l *Line) { seen[l.Addr] = l.State })
	if len(seen) != 2 || seen[0x0] != Shared || seen[0x80] != Excl {
		t.Fatalf("ForEach saw %v", seen)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 1, 128) },
		func() { New(100, 3, 128) },   // not divisible
		func() { New(3*128, 1, 128) }, // 3 sets: not power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad geometry did not panic")
				}
			}()
			f()
		}()
	}
}

func TestStateStrings(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Excl.String() != "E" {
		t.Fatal("state names wrong")
	}
}

// Property: the cache never holds more lines than its capacity, never holds
// the same address twice, and a just-inserted line is always found.
func TestPropertyCacheInvariants(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		c := New(8*4*128, 4, 128)
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			addr := msg.Addr(op) * 128 % 0x100000
			switch rng.Intn(3) {
			case 0:
				c.Insert(addr, Shared)
				if c.Lookup(addr) == nil {
					return false
				}
			case 1:
				c.Invalidate(addr)
				if c.Lookup(addr) != nil {
					return false
				}
			case 2:
				c.Touch(addr)
			}
			if c.Count() > int(c.lines.setMask+1)*c.lines.ways {
				return false
			}
			seen := map[msg.Addr]bool{}
			dup := false
			c.ForEach(func(l *Line) {
				if seen[l.Addr] {
					dup = true
				}
				seen[l.Addr] = true
			})
			if dup {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: with W ways, W distinct addresses mapping to one set all fit;
// the W+1st evicts exactly one of them.
func TestPropertyAssociativity(t *testing.T) {
	f := func(wayCount uint8) bool {
		ways := int(wayCount%8) + 1
		c := New(ways*128, ways, 128) // single set
		for i := 0; i < ways; i++ {
			_, v := c.Insert(msg.Addr(i*128), Shared)
			if v.State != Invalid {
				return false
			}
		}
		_, v := c.Insert(msg.Addr(ways*128), Shared)
		return v.State != Invalid && c.Count() == ways
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
