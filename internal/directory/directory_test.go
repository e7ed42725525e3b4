package directory

import (
	"testing"
	"testing/quick"
	"unsafe"

	"pccsim/internal/msg"
)

// TestEntrySize pins the directory record at 152 bytes: State and the
// three flags share one word instead of padding four.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n > 152 {
		t.Fatalf("Entry is %d bytes, want <= 152", n)
	}
}

func TestEntryCreation(t *testing.T) {
	d := New()
	if d.Peek(0x1000) != nil {
		t.Fatal("Peek created an entry")
	}
	e := d.Entry(0x1000)
	if e.State != Unowned || e.Owner != msg.None || e.Pending != msg.None {
		t.Fatalf("fresh entry = %s", e)
	}
	if d.Entry(0x1000) != e {
		t.Fatal("Entry not idempotent")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

func TestForEach(t *testing.T) {
	d := New()
	d.Entry(0x0)
	d.Entry(0x80)
	n := 0
	d.ForEach(func(a msg.Addr, e *Entry) { n++ })
	if n != 2 {
		t.Fatalf("ForEach visited %d, want 2", n)
	}
}

func TestStateStringsAndBusy(t *testing.T) {
	for s := Unowned; s <= Dele; s++ {
		if s.String() == "" {
			t.Fatalf("state %d unnamed", s)
		}
	}
	if !BusyShared.Busy() || !BusyExcl.Busy() {
		t.Fatal("busy states not Busy()")
	}
	if Unowned.Busy() || Shared.Busy() || Excl.Busy() || Dele.Busy() {
		t.Fatal("non-busy state reports Busy()")
	}
}

func TestEntryString(t *testing.T) {
	e := &Entry{State: Shared, Sharers: msg.Vector{}.Set(1).Set(3), Owner: msg.None, Pending: msg.None}
	if e.String() == "" {
		t.Fatal("empty entry string")
	}
}

func TestDirCacheHitKeepsHistory(t *testing.T) {
	c := NewDirCache(8, 2)
	det := c.Detector(0x1000)
	det.OnWrite(0)
	det.OnRead(1)
	det2 := c.Detector(0x1000)
	if det2 != det {
		t.Fatal("hit returned a different detector")
	}
	if det2.ReaderCount() != 1 {
		t.Fatal("history lost on hit")
	}
}

func TestDirCacheEvictionLosesHistory(t *testing.T) {
	c := NewDirCache(2, 2) // one set, two ways
	d0 := c.Detector(0 << 7)
	d0.OnWrite(0)
	d0.OnRead(1)
	d0.OnWrite(0)
	c.Detector(2 << 7) // fills second way (same set)
	c.Detector(4 << 7) // evicts LRU = addr 0
	if c.Resident(0 << 7) {
		t.Fatal("addr 0 still resident after eviction")
	}
	if c.Evicts != 1 {
		t.Fatalf("Evicts = %d, want 1", c.Evicts)
	}
	// Re-allocating addr 0 must come back with a reset detector.
	d0b := c.Detector(0 << 7)
	if d0b.WriteRepeat() != 0 || d0b.ReaderCount() != 0 {
		t.Fatal("detector history survived eviction")
	}
}

func TestDirCacheLRU(t *testing.T) {
	c := NewDirCache(2, 2)
	c.Detector(0 << 7)
	c.Detector(2 << 7)
	c.Detector(0 << 7) // refresh 0
	c.Detector(4 << 7) // should evict 2, not 0
	if !c.Resident(0 << 7) {
		t.Fatal("recently used entry evicted")
	}
	if c.Resident(2 << 7) {
		t.Fatal("LRU entry survived")
	}
}

func TestDirCacheSetsIsolated(t *testing.T) {
	c := NewDirCache(8, 2) // 4 sets
	// Addresses in different sets must not evict each other.
	for i := 0; i < 4; i++ {
		c.Detector(msg.Addr(i) << 7)
	}
	for i := 0; i < 4; i++ {
		if !c.Resident(msg.Addr(i) << 7) {
			t.Fatalf("addr in set %d evicted by other sets", i)
		}
	}
	if c.Evicts != 0 {
		t.Fatalf("Evicts = %d, want 0", c.Evicts)
	}
}

func TestDirCacheBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { NewDirCache(0, 1) },
		func() { NewDirCache(7, 2) },
		func() { NewDirCache(6, 2) }, // 3 sets
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

// Property: the dircache never reports residency for more entries than its
// capacity, and a detector fetched twice in a row without interference is
// the same storage.
func TestPropertyDirCacheCapacity(t *testing.T) {
	const entries = 16
	f := func(lines []uint16) bool {
		c := NewDirCache(entries, 4)
		resident := 0
		seen := map[msg.Addr]bool{}
		for _, ln := range lines {
			a := msg.Addr(ln) << 7
			c.Detector(a)
			seen[a] = true
		}
		for a := range seen {
			if c.Resident(a) {
				resident++
			}
		}
		return resident <= entries
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
