package delegate

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pccsim/internal/directory"
	"pccsim/internal/msg"
)

func TestProducerInsertLookup(t *testing.T) {
	pt := NewProducerTable(32)
	dir := directory.Entry{State: directory.Excl, Owner: 3}
	e, victim := pt.Insert(0x1000, dir)
	if victim != nil {
		t.Fatal("insert into empty table evicted")
	}
	if e.Dir.Owner != 3 {
		t.Fatal("dir entry not stored")
	}
	if pt.Lookup(0x1000) != e {
		t.Fatal("lookup failed")
	}
	if pt.Lookup(0x2000) != nil {
		t.Fatal("lookup of absent succeeded")
	}
	if pt.Len() != 1 || pt.Cap() != 32 {
		t.Fatalf("Len=%d Cap=%d", pt.Len(), pt.Cap())
	}
}

func TestProducerCapacityEvictsOldest(t *testing.T) {
	pt := NewProducerTable(2)
	pt.Insert(0x100, directory.Entry{})
	pt.Insert(0x200, directory.Entry{})
	pt.Lookup(0x100) // refresh
	_, victim := pt.Insert(0x300, directory.Entry{})
	if victim == nil || victim.Addr != 0x200 {
		t.Fatalf("victim = %+v, want 0x200", victim)
	}
	if pt.Len() != 2 {
		t.Fatalf("Len = %d, want 2", pt.Len())
	}
	if pt.Peek(0x100) == nil {
		t.Fatal("recently used entry evicted")
	}
}

func TestProducerInsertExistingUpdatesInPlace(t *testing.T) {
	pt := NewProducerTable(1)
	pt.Insert(0x100, directory.Entry{State: directory.Excl})
	e, victim := pt.Insert(0x100, directory.Entry{State: directory.Shared})
	if victim != nil {
		t.Fatal("in-place update evicted")
	}
	if e.Dir.State != directory.Shared {
		t.Fatal("in-place update lost new state")
	}
}

func TestProducerRemove(t *testing.T) {
	pt := NewProducerTable(4)
	pt.Insert(0x100, directory.Entry{})
	if !pt.Remove(0x100) {
		t.Fatal("Remove of present entry failed")
	}
	if pt.Remove(0x100) {
		t.Fatal("double Remove succeeded")
	}
	if pt.Len() != 0 {
		t.Fatal("entry survived Remove")
	}
}

func TestProducerForEach(t *testing.T) {
	pt := NewProducerTable(4)
	pt.Insert(0x100, directory.Entry{})
	pt.Insert(0x200, directory.Entry{})
	n := 0
	pt.ForEach(func(e *ProducerEntry) { n++ })
	if n != 2 {
		t.Fatalf("ForEach visited %d", n)
	}
}

func TestConsumerInsertLookup(t *testing.T) {
	ct := NewConsumerTable(64)
	ct.Insert(0x1000, 5)
	home, ok := ct.Lookup(0x1000)
	if !ok || home != 5 {
		t.Fatalf("Lookup = %d,%v", home, ok)
	}
	if _, ok := ct.Lookup(0x2000); ok {
		t.Fatal("absent lookup succeeded")
	}
}

func TestConsumerUpdateInPlace(t *testing.T) {
	ct := NewConsumerTable(64)
	ct.Insert(0x1000, 5)
	ct.Insert(0x1000, 9)
	home, _ := ct.Lookup(0x1000)
	if home != 9 {
		t.Fatalf("home = %d, want 9", home)
	}
	if ct.Count() != 1 {
		t.Fatalf("Count = %d, want 1", ct.Count())
	}
}

func TestConsumerRemove(t *testing.T) {
	ct := NewConsumerTable(64)
	ct.Insert(0x1000, 5)
	ct.Remove(0x1000)
	if _, ok := ct.Lookup(0x1000); ok {
		t.Fatal("hint survived Remove")
	}
	ct.Remove(0x9999) // absent: must not panic
}

func TestConsumerRandomReplacementBounded(t *testing.T) {
	ct := NewConsumerTable(16) // 4 sets x 4 ways
	// Fill one set beyond capacity: addresses with identical set index.
	for i := 0; i < 10; i++ {
		addr := msg.Addr(i) * 4 * 128 // stride keeps the same set (4 sets)
		ct.Insert(addr<<0, msg.NodeID(i%8))
	}
	if ct.Count() > 16 {
		t.Fatalf("Count = %d exceeds capacity", ct.Count())
	}
}

// TestConsumerVictimsFollowSeed: once a set is full, each new hint
// replaces the way drawn by one shared source seeded 0x5eed, whichever
// set overflows, so seeding that source lazily moves no victim.
func TestConsumerVictimsFollowSeed(t *testing.T) {
	ct := NewConsumerTable(16) // 4 sets x 4 ways
	ref := rand.New(rand.NewSource(0x5eed))
	var model [2][ConsumerWays]msg.Addr // sets 0 and 1
	for i := 0; i < 200; i++ {
		set := i % 2
		addr := msg.Addr(i)*4*128 + msg.Addr(set)*128
		way := i / 2
		if way >= ConsumerWays { // the set is full: a random victim
			way = ref.Intn(ConsumerWays)
		}
		model[set][way] = addr
		ct.Insert(addr, msg.NodeID(i%8))
		for s := range model {
			base := s * ConsumerWays
			if got := ct.addrs[base : base+ConsumerWays]; [ConsumerWays]msg.Addr(got) != model[s] {
				t.Fatalf("insert %d: set %d holds %#x, want %#x", i, s, got, model[s])
			}
		}
	}
}

func TestConsumerStaleHintScenario(t *testing.T) {
	// The protocol drops hints when told NackNotHome; the table must
	// tolerate remove-then-reinsert cycles.
	ct := NewConsumerTable(64)
	for i := 0; i < 100; i++ {
		ct.Insert(0x4000, msg.NodeID(i%16))
		ct.Remove(0x4000)
	}
	if ct.Count() != 0 {
		t.Fatalf("Count = %d after balanced insert/remove", ct.Count())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewProducerTable(0) },
		func() { NewConsumerTable(3) },
		func() { NewConsumerTable(6) },
		func() { NewConsumerTable(12) }, // 3 sets
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}

// Property: the producer table never exceeds capacity, and the victim
// stream plus live entries always account for every insert.
func TestPropertyProducerAccounting(t *testing.T) {
	f := func(addrs []uint16) bool {
		pt := NewProducerTable(8)
		live := map[msg.Addr]bool{}
		for _, a := range addrs {
			addr := msg.Addr(a) << 7
			_, victim := pt.Insert(addr, directory.Entry{})
			if victim != nil {
				if !live[victim.Addr] {
					return false // evicted something not live
				}
				delete(live, victim.Addr)
			}
			live[addr] = true
			if pt.Len() > pt.Cap() || pt.Len() != len(live) {
				return false
			}
		}
		for a := range live {
			if pt.Peek(a) == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: consumer table lookups only ever return what was inserted for
// that address (hints may be lost, never corrupted).
func TestPropertyConsumerHintsNeverCorrupt(t *testing.T) {
	f := func(ops []struct {
		A uint16
		H uint8
	}) bool {
		ct := NewConsumerTable(32)
		lastHome := map[msg.Addr]msg.NodeID{}
		for _, op := range ops {
			addr := msg.Addr(op.A) << 7
			home := msg.NodeID(op.H % 16)
			ct.Insert(addr, home)
			lastHome[addr] = home
		}
		for addr, want := range lastHome {
			if got, ok := ct.Lookup(addr); ok && got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
