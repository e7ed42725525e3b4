package sim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"pccsim/internal/msg"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	at(e, 30, func() { got = append(got, 3) })
	at(e, 10, func() { got = append(got, 1) })
	at(e, 20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		at(e, 5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events reordered at %d: %v", i, got[:i+1])
		}
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	at(e, 100, func() {
		at(e, 10, func() { fired = true }) // in the past: clamp to now
		if e.Now() != 100 {
			t.Fatalf("Now = %d inside event, want 100", e.Now())
		}
	})
	e.Run()
	if !fired {
		t.Fatal("past-scheduled event did not fire")
	}
	if e.Now() != 100 {
		t.Fatalf("final Now = %d, want 100", e.Now())
	}
}

func TestAfter(t *testing.T) {
	e := NewEngine()
	var fired Time
	at(e, 40, func() {
		after(e, 7, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 47 {
		t.Fatalf("After fired at %d, want 47", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, tm := range []Time{5, 10, 15, 20} {
		tm := tm
		at(e, tm, func() { fired = append(fired, tm) })
	}
	if n := e.RunWindow(12, 0); n != 2 || e.Pending() != 2 {
		t.Fatalf("RunWindow(12) ran %d events, %d pending; want 2 and 2", n, e.Pending())
	}
	if len(fired) != 2 || e.Now() != 10 {
		t.Fatalf("fired %v, now %d; want events at 5 and 10 only", fired, e.Now())
	}
	if n := e.RunWindow(100, 0); n != 2 || e.Pending() != 0 {
		t.Fatalf("RunWindow(100) ran %d events, %d pending; want 2 and drained", n, e.Pending())
	}
	if len(fired) != 4 {
		t.Fatalf("fired %v, want 4 events", fired)
	}
}

func TestRunSteps(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		at(e, Time(i), func() { count++ })
	}
	if n := e.RunWindow(^Time(0), 4); n != 4 || e.Pending() != 6 {
		t.Fatalf("budget 4 ran %d events, %d pending; want 4 and 6", n, e.Pending())
	}
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	if n := e.RunWindow(^Time(0), 100); n != 6 || e.Pending() != 0 {
		t.Fatalf("budget 100 ran %d events, %d pending; want 6 and drained", n, e.Pending())
	}
}

func TestCascadedEvents(t *testing.T) {
	e := NewEngine()
	depth := 0
	var chain func()
	chain = func() {
		depth++
		if depth < 1000 {
			after(e, 1, chain)
		}
	}
	at(e, 0, chain)
	e.Run()
	if depth != 1000 {
		t.Fatalf("depth = %d, want 1000", depth)
	}
	if e.Now() != 999 {
		t.Fatalf("Now = %d, want 999", e.Now())
	}
	if e.Steps() != 1000 {
		t.Fatalf("Steps = %d, want 1000", e.Steps())
	}
}

// Property: events always execute in nondecreasing time order and the engine
// visits every scheduled event exactly once, for arbitrary schedules.
func TestPropertyTimeMonotonic(t *testing.T) {
	f := func(times []uint16) bool {
		e := NewEngine()
		var ran []Time
		for _, tm := range times {
			tm := Time(tm)
			at(e, tm, func() { ran = append(ran, tm) })
		}
		e.Run()
		if len(ran) != len(times) {
			return false
		}
		if !sort.SliceIsSorted(ran, func(i, j int) bool { return ran[i] < ran[j] }) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving scheduling-from-within-events preserves ordering.
func TestPropertyNestedScheduling(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := NewEngine()
	var last Time
	violations := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		if e.Now() < last {
			violations++
		}
		last = e.Now()
		if depth > 0 {
			n := rng.Intn(3)
			for i := 0; i < n; i++ {
				after(e, Time(rng.Intn(50)), func() { spawn(depth - 1) })
			}
		}
	}
	for i := 0; i < 20; i++ {
		at(e, Time(rng.Intn(100)), func() { spawn(6) })
	}
	e.Run()
	if violations != 0 {
		t.Fatalf("%d time-order violations", violations)
	}
}

func TestRunGuardedDrains(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		at(e, Time(i), func() { count++ })
	}
	at, err := e.RunGuarded(100)
	if err != nil {
		t.Fatalf("run under budget failed: %v", err)
	}
	if count != 10 || at != 9 {
		t.Fatalf("count=%d at=%d, want 10 at 9", count, at)
	}
}

func TestRunGuardedUnlimited(t *testing.T) {
	e := NewEngine()
	depth := 0
	var chain func()
	chain = func() {
		depth++
		if depth < 5000 {
			after(e, 1, chain)
		}
	}
	at(e, 0, chain)
	if _, err := e.RunGuarded(0); err != nil {
		t.Fatalf("maxSteps=0 must never fail: %v", err)
	}
	if depth != 5000 {
		t.Fatalf("depth = %d, want 5000", depth)
	}
}

func TestRunGuardedAbortsRunaway(t *testing.T) {
	e := NewEngine()
	// Execute some events before the guarded run so the error's
	// engine-lifetime total is distinguishable from the guarded window.
	for i := 0; i < 7; i++ {
		at(e, Time(i), func() {})
	}
	e.Run()
	// A livelock: the event reschedules itself forever.
	var spin func()
	spin = func() { after(e, 3, spin) }
	at(e, 0, spin)
	_, err := e.RunGuarded(1000)
	if err == nil {
		t.Fatal("runaway loop not aborted")
	}
	re, ok := err.(*RunawayError)
	if !ok {
		t.Fatalf("error type %T, want *RunawayError", err)
	}
	if re.Steps != 1000 {
		t.Fatalf("Steps = %d, want 1000", re.Steps)
	}
	if re.TotalSteps != e.Steps() || re.TotalSteps != 1007 {
		t.Fatalf("TotalSteps = %d, want engine total %d (= 1007)", re.TotalSteps, e.Steps())
	}
	if re.Pending != 1 {
		t.Fatalf("Pending = %d, want 1 (the self-rescheduling event)", re.Pending)
	}
	if re.NextAt < re.Now {
		t.Fatalf("NextAt %d before Now %d", re.NextAt, re.Now)
	}
	if re.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestRunGuardedMatchesRun(t *testing.T) {
	// The guard must not perturb event order or timing.
	build := func() (*Engine, *[]Time) {
		e := NewEngine()
		var ran []Time
		for _, tm := range []Time{9, 3, 3, 7, 1} {
			tm := tm
			at(e, tm, func() { ran = append(ran, tm) })
		}
		return e, &ran
	}
	e1, r1 := build()
	e2, r2 := build()
	t1 := e1.Run()
	t2, err := e2.RunGuarded(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 || len(*r1) != len(*r2) {
		t.Fatalf("guarded run diverged: %d/%v vs %d/%v", t1, *r1, t2, *r2)
	}
	for i := range *r1 {
		if (*r1)[i] != (*r2)[i] {
			t.Fatalf("event order diverged at %d", i)
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			at(e, Time(j%97), func() {})
		}
		e.Run()
	}
}

func TestPendingCensus(t *testing.T) {
	e := NewEngine()
	h := &nullHandler{}
	for i := 0; i < 3; i++ {
		m := e.NewMsg()
		m.Type = msg.GetShared
		e.AfterMsg(Time(10+i), h, 0, m)
	}
	m := e.NewMsg()
	m.Type = msg.Nack
	e.AfterMsg(2000, h, 0, m) // lands in the far heap
	e.ScheduleArg(5, h, 7, 42)

	census := e.PendingCensus()
	want := map[string]int{"GetShared": 3, "Nack": 1, "*sim.nullHandler op 7": 1}
	if len(census) != len(want) {
		t.Fatalf("census = %+v, want %v", census, want)
	}
	for _, mc := range census {
		if want[mc.Type] != mc.Count {
			t.Fatalf("census[%s] = %d, want %d", mc.Type, mc.Count, want[mc.Type])
		}
	}
	// Sorted by descending count.
	if census[0].Type != "GetShared" {
		t.Fatalf("census not sorted by count: %+v", census)
	}
}

func TestRunawayErrorCarriesCensus(t *testing.T) {
	e := NewEngine()
	h := &nullHandler{}
	var spin func()
	spin = func() {
		m := e.NewMsg()
		m.Type = msg.Intervention
		e.AfterMsg(100_000, h, 0, m) // far enough out to still be queued at abort
		after(e, 3, spin)
	}
	at(e, 0, spin)
	_, err := e.RunGuarded(50)
	re, ok := err.(*RunawayError)
	if !ok {
		t.Fatalf("err = %v, want *RunawayError", err)
	}
	if len(re.Census) == 0 {
		t.Fatal("runaway error has no pending-message census")
	}
	if s := re.Error(); !strings.Contains(s, "pending:") || !strings.Contains(s, "Intervention=") {
		t.Fatalf("error string lacks census: %q", s)
	}
}

type nullHandler struct{}

func (nullHandler) HandleMsgEvent(op uint8, m *msg.Message) {}
