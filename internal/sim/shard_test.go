package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pccsim/internal/msg"
)

func TestNextAtAndRunWindow(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Fatal("empty engine reports a next event")
	}
	var got []int
	at(e, 10, func() { got = append(got, 1) })
	at(e, 20, func() { got = append(got, 2) })
	at(e, 31, func() { got = append(got, 3) })
	if at, ok := e.NextAt(); !ok || at != 10 {
		t.Fatalf("NextAt = %d,%v, want 10,true", at, ok)
	}
	if n := e.RunWindow(30, 0); n != 2 {
		t.Fatalf("RunWindow ran %d events, want 2", n)
	}
	if want := []int{1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("window executed %v, want %v", got, want)
	}
	if at, ok := e.NextAt(); !ok || at != 31 {
		t.Fatalf("NextAt after window = %d,%v, want 31,true", at, ok)
	}
	if n := e.RunWindow(100, 0); n != 1 {
		t.Fatalf("second window ran %d events, want 1", n)
	}
}

func TestRunWindowBudget(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		at(e, Time(i), func() {})
	}
	if n := e.RunWindow(100, 4); n != 4 {
		t.Fatalf("budgeted window ran %d events, want 4", n)
	}
	if e.Pending() != 6 {
		t.Fatalf("pending after budget cut = %d, want 6", e.Pending())
	}
}

// mailbox is a minimal cross-shard channel for tests: sends stage into
// lanes, and a barrier hook drains them into the destination engines —
// the same shape internal/network gives the real system.
type mailbox struct {
	g     *Group
	look  Time
	lanes [][]mailslot
}

type mailslot struct {
	at Time
	fn func()
}

func newMailbox(g *Group) *mailbox {
	mb := &mailbox{g: g, look: g.look, lanes: make([][]mailslot, g.Shards())}
	g.OnBarrier(mb.drain)
	return mb
}

// sendFrom schedules fn on dst's engine at the sender's now+look (the
// minimum legal cross-shard latency), via the barrier lanes, and reports
// the hand-off to the sender's engine as the group requires.
func (mb *mailbox) sendFrom(src, dst int, fn func()) {
	mb.g.Engine(src).CutWindow()
	at := mb.g.Engine(src).Now() + mb.look
	mb.lanes[dst] = append(mb.lanes[dst], mailslot{at: at, fn: fn})
}

func (mb *mailbox) drain() {
	for d := range mb.lanes {
		for _, s := range mb.lanes[d] {
			at(mb.g.Engine(d), s.at, s.fn)
		}
		mb.lanes[d] = mb.lanes[d][:0]
	}
}

// grownCap is the allowance cap the tests grow windows to; pinned
// groups are built with it and then pinned, so both schedules come from
// the same constructor call.
const grownCap = 1024 * 100

// newTestGroup builds a group whose windows grow up to grownCap, or the
// same group pinned to fixed windows.
func newTestGroup(shards int, parallel, pinned bool) *Group {
	g := NewGroup(shards, 100, grownCap, parallel)
	if pinned {
		g.PinWindows()
	}
	return g
}

func TestGroupCrossShardPingPong(t *testing.T) {
	for _, sched := range []struct{ parallel, pinned bool }{
		{false, true}, {true, true}, {false, false}, {true, false},
	} {
		parallel := sched.parallel
		g := newTestGroup(2, parallel, sched.pinned)
		mb := newMailbox(g)
		var mu sync.Mutex
		hops := 0
		var ping, pong func()
		ping = func() {
			mu.Lock()
			hops++
			n := hops
			mu.Unlock()
			if n < 10 {
				mb.sendFrom(0, 1, pong)
			}
		}
		pong = func() {
			mu.Lock()
			hops++
			n := hops
			mu.Unlock()
			if n < 10 {
				mb.sendFrom(1, 0, ping)
			}
		}
		at(g.Engine(0), 0, ping)
		end, _ := g.RunGuarded(0)
		if hops != 10 {
			t.Fatalf("parallel=%v: %d hops, want 10", parallel, hops)
		}
		// Each hop adds exactly one lookahead of latency, grown or not.
		if want := Time(9 * 100); end != want {
			t.Fatalf("%+v: finished at %d, want %d", sched, end, want)
		}
		if g.Steps() != 10 {
			t.Fatalf("%+v: Steps = %d, want 10", sched, g.Steps())
		}
	}
}

func TestGroupPendingCensus(t *testing.T) {
	g := NewGroup(3, 10, 0, false)
	h := &nullHandler{}
	// Shard 0: two GetShared; shard 1: a Nack and a message-less event;
	// shard 2: empty.
	for i := 0; i < 2; i++ {
		m := g.Engine(0).NewMsg()
		m.Type = msg.GetShared
		g.Engine(0).AfterMsg(Time(10+i), h, 0, m)
	}
	m := g.Engine(1).NewMsg()
	m.Type = msg.Nack
	g.Engine(1).AfterMsg(5, h, 0, m)
	g.Engine(1).ScheduleArg(7, h, 2, 0)

	if g.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", g.Pending())
	}
	census := g.PendingCensus()
	want := map[string]int{"GetShared": 2, "Nack": 1, "*sim.nullHandler op 2": 1}
	if len(census) != len(want) {
		t.Fatalf("census = %+v, want %v", census, want)
	}
	for _, mc := range census {
		if want[mc.Type] != mc.Count {
			t.Fatalf("census[%s] = %d, want %d", mc.Type, mc.Count, want[mc.Type])
		}
	}
	if census[0].Type != "GetShared" {
		t.Fatalf("census not sorted by count: %+v", census)
	}
	if at, ok := g.NextAt(); !ok || at != 5 {
		t.Fatalf("NextAt = %d,%v, want 5,true", at, ok)
	}
}

func TestGroupRunGuardedRunaway(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		g := NewGroup(2, 10, 0, parallel)
		for s := 0; s < 2; s++ {
			e := g.Engine(s)
			var spin func()
			spin = func() { after(e, 1, spin) }
			at(e, 0, spin)
		}
		_, err := g.RunGuarded(100)
		if !errors.Is(err, ErrRunaway) {
			t.Fatalf("parallel=%v: err = %v, want ErrRunaway", parallel, err)
		}
		var re *RunawayError
		if !errors.As(err, &re) {
			t.Fatalf("parallel=%v: err = %T, want *RunawayError", parallel, err)
		}
		if re.Pending != 2 {
			t.Fatalf("parallel=%v: aggregated Pending = %d, want 2 (one per shard)", parallel, re.Pending)
		}
		if re.Steps < 100 {
			t.Fatalf("parallel=%v: Steps = %d, want >= budget 100", parallel, re.Steps)
		}
		if len(re.Census) != 1 || re.Census[0].Type != "sim.call op 0" || re.Census[0].Count != 2 {
			t.Fatalf("parallel=%v: census = %+v, want sim.call op 0=2", parallel, re.Census)
		}
	}
}

func TestGroupPanicPropagates(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		g := NewGroup(4, 10, 0, parallel)
		// Two shards panic in the same window; the lowest shard's value
		// must win under both schedulers.
		at(g.Engine(3), 5, func() { panic("shard3 boom") })
		at(g.Engine(1), 5, func() { panic("shard1 boom") })
		at(g.Engine(0), 5, func() {})
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("parallel=%v: no panic", parallel)
				}
				if s, _ := r.(string); s != "shard1 boom" {
					t.Fatalf("parallel=%v: recovered %v, want shard1 boom", parallel, r)
				}
			}()
			g.RunGuarded(0)
		}()
	}
}

func TestGroupSerialParallelEquivalent(t *testing.T) {
	// A deterministic multi-shard workload: every shard runs a local
	// event chain and occasionally posts to its neighbour. The serial
	// and parallel schedulers must produce identical per-shard event
	// logs, clocks and step counts.
	type result struct {
		logs    [][]string
		now     Time
		steps   uint64
		windows uint64
	}
	build := func(parallel, pinned bool) result {
		const shards = 4
		g := newTestGroup(shards, parallel, pinned)
		mb := newMailbox(g)
		logs := make([][]string, shards)
		var mu sync.Mutex
		var chain func(s, depth int) func()
		chain = func(s, depth int) func() {
			return func() {
				e := g.Engine(s)
				mu.Lock()
				logs[s] = append(logs[s], fmt.Sprintf("s%d d%d @%d", s, depth, e.Now()))
				mu.Unlock()
				if depth >= 12 {
					return
				}
				after(e, Time(3+depth), chain(s, depth+1))
				if depth%3 == 0 {
					dst := (s + 1) % shards
					mb.sendFrom(s, dst, chain(dst, depth+1))
				}
			}
		}
		for s := 0; s < shards; s++ {
			at(g.Engine(s), Time(s), chain(s, 0))
		}
		now, _ := g.RunGuarded(0)
		return result{logs: logs, now: now, steps: g.Steps(), windows: g.Windows()}
	}
	// The pinned serial run is the reference: grown windows, serial or
	// parallel, must reproduce its event order exactly.
	ref := build(false, true)
	for _, sched := range []struct{ parallel, pinned bool }{
		{true, true}, {false, false}, {true, false},
	} {
		got := build(sched.parallel, sched.pinned)
		if got.now != ref.now || got.steps != ref.steps {
			t.Fatalf("%+v (now %d, steps %d) != pinned serial (now %d, steps %d)",
				sched, got.now, got.steps, ref.now, ref.steps)
		}
		if !reflect.DeepEqual(got.logs, ref.logs) {
			t.Fatalf("%+v: per-shard logs diverge:\ngot: %v\nref: %v", sched, got.logs, ref.logs)
		}
		if got.windows > ref.windows {
			t.Fatalf("%+v: %d windows, more than the pinned %d", sched, got.windows, ref.windows)
		}
	}
}

// TestGroupGrownWindowsStraggler pins the point of growth: a lone busy
// shard runs in far fewer windows than the fixed schedule, and the one
// message it sends, answered by the other shard, still lands in its
// future: the send ends its grown window where the fixed schedule's
// barrier falls, so the event order stays the pinned one.
func TestGroupGrownWindowsStraggler(t *testing.T) {
	run := func(parallel, pinned bool) ([][]string, uint64) {
		g := newTestGroup(2, parallel, pinned)
		mb := newMailbox(g)
		log := make([][]string, 2)
		record := func(s int) {
			log[s] = append(log[s], fmt.Sprintf("@%d", g.Engine(s).Now()))
		}
		e0 := g.Engine(0)
		var chain func(depth int) func()
		chain = func(depth int) func() {
			return func() {
				record(0)
				if depth < 2000 {
					after(e0, 7, chain(depth+1))
				}
				if depth == 1000 {
					mb.sendFrom(0, 1, func() {
						record(1)
						mb.sendFrom(1, 0, func() { record(0) })
					})
				}
			}
		}
		at(e0, 0, chain(0))
		g.RunGuarded(0)
		return log, g.Windows()
	}
	refLog, refWin := run(false, true)
	for _, parallel := range []bool{false, true} {
		log, win := run(parallel, false)
		if !reflect.DeepEqual(log, refLog) {
			t.Fatalf("parallel=%v: grown event order diverges from pinned", parallel)
		}
		if win*10 > refWin {
			t.Fatalf("parallel=%v: grown windows %d, want < 1/10 of pinned %d", parallel, win, refWin)
		}
	}
}

func TestGroupSingleShardMatchesEngine(t *testing.T) {
	// One shard is the degenerate case: the window loop must reproduce a
	// plain engine run exactly.
	build := func(run func(*Engine) (Time, uint64)) ([]string, Time, uint64) {
		e := NewEngine()
		var log []string
		var chain func(depth int) func()
		chain = func(depth int) func() {
			return func() {
				log = append(log, fmt.Sprintf("d%d @%d", depth, e.Now()))
				if depth < 20 {
					after(e, Time(1+depth%7), chain(depth+1))
				}
			}
		}
		at(e, 0, chain(0))
		at(e, 0, chain(100))
		now, steps := run(e)
		return log, now, steps
	}
	wantLog, wantNow, wantSteps := build(func(e *Engine) (Time, uint64) {
		return e.Run(), e.Steps()
	})
	// Group with one pre-existing engine is not constructible, so rebuild
	// the same program inside a fresh group's engine via the same seed
	// structure: NewGroup(1,...) then schedule identically.
	g := NewGroup(1, 100, 0, false)
	e := g.Engine(0)
	var log []string
	var chain func(depth int) func()
	chain = func(depth int) func() {
		return func() {
			log = append(log, fmt.Sprintf("d%d @%d", depth, e.Now()))
			if depth < 20 {
				after(e, Time(1+depth%7), chain(depth+1))
			}
		}
	}
	at(e, 0, chain(0))
	at(e, 0, chain(100))
	now, _ := g.RunGuarded(0)
	if now != wantNow || g.Steps() != wantSteps {
		t.Fatalf("group run (now %d, steps %d) != engine run (now %d, steps %d)",
			now, g.Steps(), wantNow, wantSteps)
	}
	if !reflect.DeepEqual(log, wantLog) {
		t.Fatalf("event order diverges:\ngroup:  %v\nengine: %v", log, wantLog)
	}
}
