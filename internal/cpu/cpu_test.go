package cpu

import (
	"testing"
	"testing/quick"

	"pccsim/internal/msg"
	"pccsim/internal/sim"
)

// fakeHub records accesses and completes them after a fixed latency.
type fakeHub struct {
	eng     *sim.Engine
	latency sim.Time
	loads   []msg.Addr
	stores  []msg.Addr
}

func (f *fakeHub) Access(addr msg.Addr, write bool, done sim.MsgHandler, op uint8) {
	if write {
		f.stores = append(f.stores, addr)
	} else {
		f.loads = append(f.loads, addr)
	}
	f.eng.AfterMsg(f.latency, done, op, nil)
}

func run1(t *testing.T, ops []Op, latency sim.Time, maxStore int) (*CPU, *fakeHub, *sim.Engine) {
	t.Helper()
	eng := sim.NewEngine()
	hub := &fakeHub{eng: eng, latency: latency}
	bars := NewBarrierSet(eng, 1, 10)
	c := New(eng, 0, hub, &SliceStream{Ops: ops}, bars, maxStore)
	c.Start()
	eng.Run()
	if !c.Done() {
		t.Fatal("program did not finish")
	}
	return c, hub, eng
}

func TestLoadsBlock(t *testing.T) {
	c, hub, eng := run1(t, []Op{
		{Kind: Load, Addr: 0x100},
		{Kind: Load, Addr: 0x200},
	}, 50, 8)
	if len(hub.loads) != 2 {
		t.Fatalf("loads = %d, want 2", len(hub.loads))
	}
	// Two blocking loads at 50 cycles each: finish >= 100.
	if eng.Now() < 100 || c.Finish() < 100 {
		t.Fatalf("loads overlapped: finished at %d", c.Finish())
	}
}

func TestStoresOverlap(t *testing.T) {
	c, hub, _ := run1(t, []Op{
		{Kind: Store, Addr: 0x100},
		{Kind: Store, Addr: 0x200},
		{Kind: Store, Addr: 0x300},
	}, 50, 8)
	if len(hub.stores) != 3 {
		t.Fatalf("stores = %d, want 3", len(hub.stores))
	}
	// Issued one per cycle; the program part ends at ~3 cycles, stores
	// retire in background by 50+2; well under the serial 150.
	if c.Finish() > 10 {
		t.Fatalf("stores did not overlap: program finished at %d", c.Finish())
	}
}

func TestStoreBufferStalls(t *testing.T) {
	// With a 1-entry buffer the second store waits for the first.
	_, _, eng := run1(t, []Op{
		{Kind: Store, Addr: 0x100},
		{Kind: Store, Addr: 0x200},
	}, 50, 1)
	if eng.Now() < 100 {
		t.Fatalf("1-deep store buffer overlapped stores: drained at %d", eng.Now())
	}
}

func TestComputeAdvancesTime(t *testing.T) {
	c, _, _ := run1(t, []Op{
		ComputeOp(1000),
	}, 1, 8)
	if c.Finish() != 1000 {
		t.Fatalf("finish = %d, want 1000", c.Finish())
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	eng := sim.NewEngine()
	hub := &fakeHub{eng: eng, latency: 10}
	bars := NewBarrierSet(eng, 2, 10)
	fast := New(eng, 0, hub, &SliceStream{Ops: []Op{
		{Kind: Barrier, Bar: 1},
		{Kind: Load, Addr: 0x100},
	}}, bars, 8)
	slow := New(eng, 1, hub, &SliceStream{Ops: []Op{
		ComputeOp(500),
		{Kind: Barrier, Bar: 1},
	}}, bars, 8)
	fast.Start()
	slow.Start()
	eng.Run()
	if !fast.Done() || !slow.Done() {
		t.Fatal("deadlock at barrier")
	}
	// fast must not pass the barrier before slow arrives at 500.
	if fast.Finish() < 500 {
		t.Fatalf("fast finished at %d, before slow reached the barrier", fast.Finish())
	}
	if fast.Barriers() != 1 || slow.Barriers() != 1 {
		t.Fatal("barrier counts wrong")
	}
}

func TestBarrierDrainsStoreBuffer(t *testing.T) {
	// A store issued right before a barrier must retire before the core
	// arrives (memory fence semantics).
	eng := sim.NewEngine()
	hub := &fakeHub{eng: eng, latency: 200}
	bars := NewBarrierSet(eng, 1, 0)
	c := New(eng, 0, hub, &SliceStream{Ops: []Op{
		{Kind: Store, Addr: 0x100},
		{Kind: Barrier, Bar: 7},
	}}, bars, 8)
	c.Start()
	eng.Run()
	if c.Finish() < 200 {
		t.Fatalf("barrier crossed at %d before the store retired", c.Finish())
	}
}

func TestBarrierReusable(t *testing.T) {
	eng := sim.NewEngine()
	hub := &fakeHub{eng: eng, latency: 1}
	bars := NewBarrierSet(eng, 2, 5)
	mk := func(id msg.NodeID) *CPU {
		var ops []Op
		for i := 0; i < 5; i++ {
			ops = append(ops, ComputeOp(sim.Time(10*(int(id)+1))))
			ops = append(ops, BarrierOp(i))
		}
		return New(eng, id, hub, &SliceStream{Ops: ops}, bars, 8)
	}
	a, b := mk(0), mk(1)
	a.Start()
	b.Start()
	eng.Run()
	if !a.Done() || !b.Done() {
		t.Fatal("reused barriers deadlocked")
	}
	if a.Barriers() != 5 || b.Barriers() != 5 {
		t.Fatal("wrong barrier counts")
	}
}

func TestFuncStream(t *testing.T) {
	n := 0
	s := FuncStream(func() (Op, bool) {
		if n >= 3 {
			return Op{}, false
		}
		n++
		return ComputeOp(1), true
	})
	eng := sim.NewEngine()
	c := New(eng, 0, &fakeHub{eng: eng, latency: 1}, s, NewBarrierSet(eng, 1, 0), 8)
	c.Start()
	eng.Run()
	if !c.Done() || c.Finish() != 3 {
		t.Fatalf("FuncStream run: done=%v finish=%d", c.Done(), c.Finish())
	}
}

func TestEmptyProgram(t *testing.T) {
	c, _, _ := run1(t, nil, 1, 8)
	if c.Finish() != 0 {
		t.Fatalf("empty program finished at %d", c.Finish())
	}
}

// Property: for random programs, every operation is eventually executed
// exactly once — counts at the hub match the program — and the core
// finishes, for any store-buffer depth.
func TestPropertyRandomProgramsComplete(t *testing.T) {
	f := func(kinds []uint8, depth uint8) bool {
		eng := sim.NewEngine()
		hub := &fakeHub{eng: eng, latency: 7}
		bars := NewBarrierSet(eng, 1, 3)
		var ops []Op
		wantLoads, wantStores := 0, 0
		barID := 0
		for _, k := range kinds {
			switch k % 4 {
			case 0:
				ops = append(ops, Op{Kind: Load, Addr: msg.Addr(k) * 32})
				wantLoads++
			case 1:
				ops = append(ops, Op{Kind: Store, Addr: msg.Addr(k) * 32})
				wantStores++
			case 2:
				ops = append(ops, ComputeOp(sim.Time(k%16)))
			case 3:
				ops = append(ops, BarrierOp(barID))
				barID++
			}
		}
		c := New(eng, 0, hub, &SliceStream{Ops: ops}, bars, int(depth%8)+1)
		c.Start()
		eng.Run()
		return c.Done() && len(hub.loads) == wantLoads && len(hub.stores) == wantStores
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
