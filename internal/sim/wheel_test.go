package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"unsafe"

	"pccsim/internal/msg"
)

// refEngine is the pre-timing-wheel engine kept as the ordering reference:
// a container/heap priority queue over (at, seq), exactly the seed
// implementation. The determinism regression test replays identical
// schedules on it and on Engine and requires identical execution orders.
type refEngine struct {
	now   Time
	seq   uint64
	queue refQueue
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

func (e *refEngine) Now() Time { return e.now }

func (e *refEngine) Schedule(at Time, fn func()) {
	if at < e.now {
		at = e.now
	}
	heap.Push(&e.queue, &refEvent{at: at, seq: e.seq, fn: fn})
	e.seq++
}

func (e *refEngine) After(d Time, fn func()) { e.Schedule(e.now+d, fn) }

func (e *refEngine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*refEvent)
	e.now = ev.at
	ev.fn()
	return true
}

func (e *refEngine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// clock abstracts the two engines for the replay harness.
type clock interface {
	Now() Time
	Schedule(at Time, fn func())
	After(d Time, fn func())
	Run() Time
}

// engineClock drives an Engine through the test's call events.
type engineClock struct{ *Engine }

func (c engineClock) Schedule(t Time, fn func()) { at(c.Engine, t, fn) }
func (c engineClock) After(d Time, fn func())    { after(c.Engine, d, fn) }

// replaySchedule drives a deterministic, adversarial workload against eng:
// a recorded mix of near-constant protocol delays, far-future timestamps
// (beyond the wheel window so the heap fallback engages), same-cycle ties,
// and past-time scheduling, with events spawning children. It returns the
// execution order as (id, now) pairs.
type replayRecord struct {
	id int
	at Time
}

func replaySchedule(eng clock, seed int64) []replayRecord {
	rng := rand.New(rand.NewSource(seed))
	var order []replayRecord
	nextID := 0
	var spawn func(depth int) func()
	spawn = func(depth int) func() {
		id := nextID
		nextID++
		return func() {
			order = append(order, replayRecord{id: id, at: eng.Now()})
			if depth <= 0 {
				return
			}
			n := rng.Intn(3)
			for i := 0; i < n; i++ {
				var d Time
				switch rng.Intn(6) {
				case 0:
					d = 0 // same-cycle tie
				case 1:
					d = Time(rng.Intn(5)) // tiny jitter
				case 2:
					d = 100 // hop latency
				case 3:
					d = 20 // local crossbar
				case 4:
					d = Time(1000 + rng.Intn(60000)) // beyond the wheel window
				case 5:
					// Past-time scheduling: clamps to the current cycle.
					at := eng.Now()
					if at > 50 {
						at -= Time(rng.Intn(50))
					}
					eng.Schedule(at, spawn(depth-1))
					continue
				}
				eng.After(d, spawn(depth-1))
			}
		}
	}
	for i := 0; i < 40; i++ {
		var at Time
		switch rng.Intn(3) {
		case 0:
			at = Time(rng.Intn(30)) // dense near-zero ties
		case 1:
			at = Time(rng.Intn(1024)) // inside the initial window
		case 2:
			at = Time(1024 + rng.Intn(100000)) // heap fallback
		}
		eng.Schedule(at, spawn(5))
	}
	eng.Run()
	return order
}

// TestWheelMatchesHeapReference is the determinism regression test: the
// timing-wheel engine must replay a recorded schedule — mixed near/far
// timestamps, same-cycle ties, past-time scheduling, nested spawning — in
// exactly the order the seed heap implementation produced.
func TestWheelMatchesHeapReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		want := replaySchedule(&refEngine{}, seed)
		got := replaySchedule(engineClock{NewEngine()}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: executed %d events, reference executed %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: order diverged at event %d: wheel ran id=%d at cycle %d, reference id=%d at cycle %d",
					seed, i, got[i].id, uint64(got[i].at), want[i].id, uint64(want[i].at))
			}
		}
	}
}

// TestWheelFarMigrationOrdering pins the trickiest wheel invariant: a
// far-heap event must run before a same-cycle event scheduled later
// (smaller sequence number wins), even though it enters its bucket by
// migration rather than directly.
func TestWheelFarMigrationOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	at(e, 2000, func() { order = append(order, 1) }) // far at schedule time
	at(e, 1500, func() {
		// Window now reaches 1500+1024: schedule directly at 2000.
		at(e, 2000, func() { order = append(order, 2) })
	})
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("far/near same-cycle order = %v, want [1 2]", order)
	}
	if e.Now() != 2000 {
		t.Fatalf("Now = %d, want 2000", e.Now())
	}
}

// TestWheelBucketReuseAcrossEpochs exercises bucket aliasing: cycles that
// map to the same bucket (delta of exactly wheelSize) must not mix.
func TestWheelBucketReuseAcrossEpochs(t *testing.T) {
	e := NewEngine()
	var order []Time
	rec := func() { order = append(order, e.Now()) }
	at(e, 5, rec)
	at(e, 5+wheelSize, rec)
	at(e, 5+2*wheelSize, rec)
	at(e, 5, rec)
	e.Run()
	want := []Time{5, 5, 5 + wheelSize, 5 + 2*wheelSize}
	if len(order) != len(want) {
		t.Fatalf("ran %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// benchSink implements MsgHandler for the typed-dispatch benchmarks; it
// reschedules each message with a protocol-like constant delay, modeling
// the steady-state churn of network delivery.
type benchSink struct {
	e     *Engine
	count int
	limit int
}

func (s *benchSink) HandleMsgEvent(op uint8, m *msg.Message) {
	s.count++
	if s.count < s.limit {
		// Cycle through the common protocol delays.
		d := Time(20)
		switch s.count & 3 {
		case 1:
			d = 100
		case 2:
			d = 50
		case 3:
			d = 200
		}
		s.e.ScheduleMsg(s.e.Now()+d, s, op, m)
	} else {
		s.e.FreeMsg(m)
	}
}

// TestScheduleMsgZeroAlloc proves the pooled typed path stays allocation
// free in steady state (acceptance criterion: 0 allocs/op for
// Schedule+Step).
func TestScheduleMsgZeroAlloc(t *testing.T) {
	e := NewEngine()
	sink := &benchSink{e: e, limit: 1 << 30}
	m := e.NewMsg()
	e.ScheduleMsg(1, sink, 0, m)
	for i := 0; i < 2000; i++ { // warm the event slab and the far heap
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("Step+ScheduleMsg allocated %v allocs/op, want 0", allocs)
	}
}

// TestWheelSlabZeroAlloc pins the shared event slab: a burst of n events
// in one cycle grows it to n slots, and n events spread over n different
// cycles afterwards reuse those slots, allocating nothing and leaving the
// slab at n. The spread-out round fills n buckets the burst never used,
// so it allocates unless they take the burst's freed slots.
func TestWheelSlabZeroAlloc(t *testing.T) {
	const n = 512
	e := NewEngine()
	for i := 0; i < n; i++ {
		e.ScheduleArg(1, nullHandler{}, 0, uint32(i))
	}
	e.Run()
	if len(e.slab) != n {
		t.Fatalf("after a %d-event burst the slab holds %d slots, want %d", n, len(e.slab), n)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < n; i++ {
			e.AfterArg(Time(1+i), nullHandler{}, 0, uint32(i))
		}
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("%d events over %d cycles allocated %v times per round, want 0", n, n, allocs)
	}
	if len(e.slab) != n {
		t.Errorf("after the spread-out rounds the slab holds %d slots, want %d", len(e.slab), n)
	}
}

// churnMix is the delay mix the churn benchmarks replay: the constant
// protocol latencies that dominate real cells.
var churnMix = [8]Time{20, 100, 50, 200, 100, 20, 100, 10}

// BenchmarkHeapReferenceChurn is the churn workload on the seed
// container/heap engine; compare BenchmarkEngineChurnTyped.
func BenchmarkHeapReferenceChurn(b *testing.B) {
	e := &refEngine{}
	n := 0
	var tick func()
	tick = func() {
		e.After(churnMix[n&7], tick)
		n++
	}
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), tick)
	}
	for i := 0; i < 1024; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineChurnTyped measures steady-state events/second on the
// timing wheel: a fixed population of self-rescheduling typed events with
// pooled messages and protocol delays, the configuration the protocol
// layers actually run.
func BenchmarkEngineChurnTyped(b *testing.B) {
	e := NewEngine()
	sink := &benchSink{e: e, limit: 1 << 62}
	for i := 0; i < 64; i++ {
		e.ScheduleMsg(Time(i), sink, 0, e.NewMsg())
	}
	for i := 0; i < 1024; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// TestEventSize pins the wheel entry at four words: the slab writes in
// enqueue are the engine's dominant memory traffic.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 32 {
		t.Fatalf("wheel entry is %d bytes, want <= 32", n)
	}
}
