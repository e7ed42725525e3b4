// Package sim provides the discrete-event simulation engine underlying the
// coherence simulator: a cycle-granular clock and a deterministic event
// queue. All hardware components (caches, directory controllers, network
// links, processors) are modeled as handlers of typed events scheduled on a
// single Engine, which plays the role UVSIM's execution-driven core plays
// in the paper.
//
// The queue is a hierarchical timing wheel (a calendar queue): nearly every
// protocol delay is a small constant (hop latency 100, local crossbar 20,
// DRAM 200, delayed intervention 50), so near-future events live in
// ring-buffer buckets — one cycle per bucket, found through a bitmap scan —
// and only far-future timestamps (adaptive intervention hints, barrier
// waits) fall back to a binary heap. Wheel events live by value in one
// slab shared by all buckets, each bucket a linked FIFO through it, and
// far events by value in the heap; the slab grows only to the peak count
// of live wheel events and reuses a freed slot at once, so steady-state
// scheduling allocates nothing.
package sim

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"

	"pccsim/internal/msg"
)

// Time is the simulation clock, measured in processor cycles (2 GHz in the
// default configuration, so one cycle is 0.5 ns).
type Time uint64

const (
	// wheelBits sizes the timing wheel. 1024 cycles comfortably covers
	// every constant protocol delay (the worst common case is a remote
	// DRAM reply: 2 hops * 100 + DRAM 200 + serialization ≈ 440 cycles);
	// only adaptive-delay hints (up to 50k cycles) and synthetic far
	// timers take the heap path.
	wheelBits = 10
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1

	// MsgPoolCap bounds the engine's message free list. Beyond this many
	// parked messages the pool stops growing and lets the garbage
	// collector take the excess; the bound exists so a pathological burst
	// (e.g. a full-system invalidation storm) does not pin memory for the
	// rest of the run.
	MsgPoolCap = 4096
)

// MsgHandler is the event target: every component that schedules work
// (the CPUs, the hubs, the network's delivery pipeline) implements it once
// and receives the opcode it passed to ScheduleMsg or ScheduleArg back at
// fire time. Dispatching through the opcode instead of a captured closure
// keeps an event to four words and the steady-state allocation rate at
// zero.
type MsgHandler interface {
	HandleMsgEvent(op uint8, m *msg.Message)
}

// event is one wheel entry: the handler, its opcode, an optional message
// and an optional small argument (read back through Engine.Arg). A wheel
// bucket is one cycle and FIFO, so the entry needs no timestamp, sequence
// number or link (the slab's links are a parallel array); the far heap
// wraps it in a farEvent that has the timestamp and sequence number.
type event struct {
	h   MsgHandler
	m   *msg.Message
	arg uint32
	op  uint8
}

// farEvent is a far-heap entry, ordered by (at, seq).
type farEvent struct {
	at  Time
	seq uint64
	ev  event
}

// bucket is one wheel slot: a FIFO of the events due at a single cycle,
// linked through the engine's slab. head and tail are slot links (see
// Engine.next); the zero bucket is empty.
type bucket struct{ head, tail int32 }

// Engine is a deterministic discrete-event scheduler. The zero value is not
// ready to use; call NewEngine.
type Engine struct {
	now    Time
	seq    uint64 // far-heap insertion counter, the tie-break within a cycle
	nSteps uint64
	arg    uint32 // the running event's argument (see Arg)

	// wbase anchors the wheel window: every wheel-resident event has a
	// timestamp in [wbase, wbase+wheelSize), which makes bucket index
	// at&wheelMask a bijection onto cycles and keeps each bucket
	// single-cycle. wbase advances with the clock (and jumps forward
	// across idle gaps); far-heap events migrate into the wheel whenever
	// an advance brings them inside the window, before any event body
	// runs, which preserves the global (at, seq) execution order.
	wbase      Time
	wheelCount int
	occ        [wheelSize / 64]uint64
	buckets    [wheelSize]bucket

	// slab holds every wheel event, whichever bucket it is in. next is
	// its parallel link array: a link is a slot index plus one, so 0
	// ends a list. Each bucket threads its FIFO through next, and so does
	// the LIFO free list headed by free, which hands a drained slot back
	// out while it is still cache-hot. The slab therefore grows only to
	// the peak number of live wheel events.
	slab []event
	next []int32
	free int32

	far farHeap

	// msgFree recycles message structs between protocol hops (see
	// Engine.NewMsg); capped at MsgPoolCap entries.
	msgFree []*msg.Message

	// cut, when set by an event body, records that the shard handed work
	// to another shard during the current window (see CutWindow).
	cut bool

	// intr, when armed via SetInterrupt, lets another goroutine ask a
	// guarded run to stop between events (see RunGuarded). nil keeps the
	// historical zero-overhead drain loop.
	intr *atomic.Bool
}

// NewEngine returns an engine with the clock at cycle 0.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Steps reports how many events have been executed so far.
func (e *Engine) Steps() uint64 { return e.nSteps }

// Pending reports how many events are waiting to run.
func (e *Engine) Pending() int { return e.wheelCount + len(e.far) }

// enqueue places ev, due at cycle at, in the wheel if at falls inside
// the current window, else in the far heap. Scheduling in the past is
// treated as scheduling for the current cycle; the event still runs after
// all events scheduled earlier for this cycle, preserving causal order.
// at >= e.wbase holds after the clamp: wbase <= now whenever user code
// runs.
func (e *Engine) enqueue(at Time, ev event) {
	if at < e.now {
		at = e.now
	}
	if at-e.wbase < wheelSize {
		e.toBucket(int(at)&wheelMask, ev)
	} else {
		e.far.push(farEvent{at: at, seq: e.seq, ev: ev})
		e.seq++
	}
}

// toBucket appends ev to wheel bucket i, in a slot off the free list or,
// when the list is empty, a new one at the slab's end.
func (e *Engine) toBucket(i int, ev event) {
	s := e.free
	if s != 0 {
		e.free = e.next[s-1]
		e.slab[s-1] = ev
		e.next[s-1] = 0
	} else {
		e.slab = append(e.slab, ev)
		e.next = append(e.next, 0)
		s = int32(len(e.slab))
	}
	b := &e.buckets[i]
	if b.tail == 0 {
		b.head = s
		e.occ[i>>6] |= 1 << (uint(i) & 63)
	} else {
		e.next[b.tail-1] = s
	}
	b.tail = s
	e.wheelCount++
}

// ScheduleMsg runs h.HandleMsgEvent(op, m) at absolute cycle at. Events
// due at the same cycle run in the order they were scheduled.
func (e *Engine) ScheduleMsg(at Time, h MsgHandler, op uint8, m *msg.Message) {
	e.enqueue(at, event{h: h, op: op, m: m})
}

// AfterMsg runs h.HandleMsgEvent(op, m) delay cycles from now.
func (e *Engine) AfterMsg(delay Time, h MsgHandler, op uint8, m *msg.Message) {
	e.enqueue(e.now+delay, event{h: h, op: op, m: m})
}

// ScheduleArg runs h.HandleMsgEvent(op, nil) at absolute cycle at, with
// arg readable through Arg while it runs: the one small word (a serial, an
// index) a message-less event may carry.
func (e *Engine) ScheduleArg(at Time, h MsgHandler, op uint8, arg uint32) {
	e.enqueue(at, event{h: h, op: op, arg: arg})
}

// AfterArg is ScheduleArg delay cycles from now.
func (e *Engine) AfterArg(delay Time, h MsgHandler, op uint8, arg uint32) {
	e.enqueue(e.now+delay, event{h: h, op: op, arg: arg})
}

// Arg reports the argument of the event being executed (0 for an event
// scheduled without one).
func (e *Engine) Arg() uint32 { return e.arg }

// NewMsg returns a zeroed message, recycled from the engine's free list
// when one is parked there. Protocol layers allocate every hop's packet
// through this and hand it back with FreeMsg once delivered, so the
// simulation's dominant allocation disappears in steady state.
func (e *Engine) NewMsg() *msg.Message {
	if n := len(e.msgFree); n > 0 {
		m := e.msgFree[n-1]
		e.msgFree[n-1] = nil
		e.msgFree = e.msgFree[:n-1]
		return m
	}
	return &msg.Message{}
}

// FreeMsg parks a delivered message for reuse. The message must not be
// referenced again by the caller. Freeing nil is a no-op; the pool stops
// growing at MsgPoolCap entries.
func (e *Engine) FreeMsg(m *msg.Message) {
	if m == nil || len(e.msgFree) >= MsgPoolCap {
		return
	}
	*m = msg.Message{}
	e.msgFree = append(e.msgFree, m)
}

// migrate moves far-heap events whose timestamps entered the wheel window
// into their buckets. Heap pops come out in (at, seq) order and bucket
// appends preserve arrival order, so per-bucket FIFO order stays globally
// seq-sorted: every event still in the heap was scheduled before anything
// scheduled after this call.
func (e *Engine) migrate() {
	for len(e.far) > 0 && e.far[0].at-e.wbase < wheelSize {
		fe := e.far.pop()
		e.toBucket(int(fe.at)&wheelMask, fe.ev)
	}
}

// nextWheel finds the earliest occupied bucket at or after wbase, returning
// its cycle and index. The occupancy bitmap makes this a handful of word
// scans regardless of how sparse the window is. Must only be called with
// wheelCount > 0.
func (e *Engine) nextWheel() (Time, int) {
	s := int(e.wbase) & wheelMask
	w := s >> 6
	word := e.occ[w] &^ (1<<(uint(s)&63) - 1)
	for i := 0; i <= len(e.occ); i++ {
		if word != 0 {
			b := w<<6 + bits.TrailingZeros64(word)
			d := (Time(b) - e.wbase) & wheelMask
			return e.wbase + d, b
		}
		w++
		if w == len(e.occ) {
			w = 0
		}
		word = e.occ[w]
	}
	panic("sim: wheel count positive but no occupied bucket")
}

// nextAt returns the timestamp of the next pending event. Wheel events are
// always earlier than anything in the far heap (the heap holds only
// timestamps at or beyond the window's end). Must only be called with
// Pending() > 0.
func (e *Engine) nextAt() Time {
	if e.wheelCount > 0 {
		t, _ := e.nextWheel()
		return t
	}
	return e.far[0].at
}

// Step executes the next event, advancing the clock to its timestamp.
// It reports false if the queue is empty.
func (e *Engine) Step() bool { return e.step(^Time(0)) }

// step executes the next event if its timestamp is <= deadline, finding
// it with one scan of the occupancy bitmap. It reports false, changing
// nothing, if the queue is empty or its next event lies past deadline.
func (e *Engine) step(deadline Time) bool {
	if e.wheelCount == 0 {
		if len(e.far) == 0 || e.far[0].at > deadline {
			return false
		}
		// Idle gap: jump the window to the next far event and pull
		// everything that now fits.
		e.wbase = e.far[0].at
		e.migrate()
	}
	t, bi := e.nextWheel()
	if t > deadline {
		return false
	}
	e.now = t
	if e.wbase != t {
		// The window end moved forward with the clock; far events may
		// have become schedulable at cycles the running event can now
		// reach. They must be in place before the event body runs so
		// that later same-cycle Schedules keep larger sequence numbers.
		e.wbase = t
		e.migrate()
	}
	b := &e.buckets[bi]
	s := b.head - 1
	ev := e.slab[s]
	e.slab[s] = event{}
	b.head = e.next[s]
	if b.head == 0 {
		b.tail = 0
		e.occ[bi>>6] &^= 1 << (uint(bi) & 63)
	}
	e.next[s] = e.free
	e.free = s + 1
	e.wheelCount--
	e.nSteps++
	e.arg = ev.arg
	ev.h.HandleMsgEvent(ev.op, ev.m)
	return true
}

// Run executes events until the queue drains, returning the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// MsgCount is one row of a pending-event census: how many queued events
// carry a message of the named type. Message-less events are tallied
// under their handler's type and opcode, e.g. "*cpu.CPU op 0".
type MsgCount struct {
	Type  string
	Count int
}

// eachPending visits every queued event with its due cycle.
func (e *Engine) eachPending(visit func(at Time, ev *event)) {
	for i := range e.buckets {
		at := e.wbase + (Time(i)-e.wbase)&wheelMask
		for s := e.buckets[i].head; s != 0; s = e.next[s-1] {
			visit(at, &e.slab[s-1])
		}
	}
	for i := range e.far {
		visit(e.far[i].at, &e.far[i].ev)
	}
}

// PendingCensus tallies the queued events by message type, most frequent
// first (ties broken by name). A livelocked protocol shows up here as a
// census dominated by the message types of the spinning exchange — e.g. a
// NACK/retry storm is all requests and Nacks.
func (e *Engine) PendingCensus() []MsgCount {
	counts := make(map[string]int)
	e.eachPending(func(_ Time, ev *event) {
		if ev.m == nil {
			counts[fmt.Sprintf("%T op %d", ev.h, ev.op)]++
		} else {
			counts[ev.m.Type.String()]++
		}
	})
	return sortCensus(counts)
}

// sortCensus orders census rows most frequent first, ties by name.
func sortCensus(counts map[string]int) []MsgCount {
	out := make([]MsgCount, 0, len(counts))
	for t, c := range counts {
		out = append(out, MsgCount{Type: t, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Type < out[j].Type
	})
	return out
}

// RunawayError reports that a guarded run exhausted its step budget before
// the event queue drained — the signature of a protocol livelock (e.g. an
// endless NACK/retry cycle). It retains enough queue context to diagnose
// what the simulation was doing when the watchdog fired, including a
// census of the messages still queued.
type RunawayError struct {
	Steps      uint64     // events executed by the guarded run before aborting
	TotalSteps uint64     // engine-lifetime events (Engine.Steps) at the abort
	Now        Time       // simulation clock at the abort
	Pending    int        // events still queued
	NextAt     Time       // timestamp of the next pending event
	Census     []MsgCount // pending events by message type, most frequent first
}

// ErrRunaway is the class sentinel for watchdog aborts: any wrapped
// *RunawayError satisfies errors.Is(err, ErrRunaway), and errors.As
// still recovers the full diagnostic struct.
var ErrRunaway = errors.New("sim: runaway simulation")

// Is makes every *RunawayError match ErrRunaway under errors.Is.
func (e *RunawayError) Is(target error) bool { return target == ErrRunaway }

func (e *RunawayError) Error() string {
	s := fmt.Sprintf("sim: watchdog: %d events executed without draining (%d total this engine, now cycle %d, %d events pending, next at cycle %d)",
		e.Steps, e.TotalSteps, uint64(e.Now), e.Pending, uint64(e.NextAt))
	if len(e.Census) > 0 {
		s += "; pending:"
		for _, mc := range e.Census {
			s += fmt.Sprintf(" %s=%d", mc.Type, mc.Count)
		}
	}
	return s
}

// ErrInterrupted reports that a guarded run stopped because its interrupt
// flag was raised (see Engine.SetInterrupt, Group.SetInterrupt) — the
// cooperative-cancellation signal a job server uses to abandon a
// simulation mid-run. An interrupted run leaves the engine consistent
// (events past the stop stay queued) but its results are incomplete and
// must be discarded.
var ErrInterrupted = errors.New("sim: run interrupted")

// SetInterrupt arms the engine with a cancellation flag shared with other
// goroutines: a guarded run polls it between events (every 1024 events,
// so the per-event cost is one branch) and stops with ErrInterrupted when
// it is set. nil (the default) disarms the check entirely. The flag never
// perturbs event order — a run that finishes without the flag set is
// bit-for-bit identical to an unarmed one.
func (e *Engine) SetInterrupt(flag *atomic.Bool) { e.intr = flag }

// RunGuarded executes events until the queue drains, like Run, but aborts
// with a *RunawayError after maxSteps events (counted from this call) if
// the queue still holds work. maxSteps == 0 means unlimited and never
// fails. The guard does not perturb event order, so a run that finishes
// under budget is bit-for-bit identical to an unguarded one. An armed
// interrupt flag (SetInterrupt) additionally stops the run with
// ErrInterrupted.
func (e *Engine) RunGuarded(maxSteps uint64) (Time, error) {
	if maxSteps == 0 && e.intr == nil {
		return e.Run(), nil
	}
	for executed := uint64(0); ; executed++ {
		if e.Pending() == 0 {
			return e.now, nil
		}
		if e.intr != nil && executed&1023 == 0 && e.intr.Load() {
			return e.now, ErrInterrupted
		}
		if maxSteps > 0 && executed >= maxSteps {
			return e.now, &RunawayError{
				Steps:      executed,
				TotalSteps: e.nSteps,
				Now:        e.now,
				Pending:    e.Pending(),
				NextAt:     e.nextAt(),
				Census:     e.PendingCensus(),
			}
		}
		e.Step()
	}
}

// NextAt reports the timestamp of the earliest pending event and whether
// one exists. Group uses it to pick the next conservative time window;
// diagnostics use it to see how far a stalled simulation would jump.
func (e *Engine) NextAt() (Time, bool) {
	if e.Pending() == 0 {
		return 0, false
	}
	return e.nextAt(), true
}

// RunWindow executes pending events with timestamps <= deadline, in the
// usual (at, seq) order, and returns how many ran. budget > 0 caps the
// count (the watchdog's share for this window); 0 means uncapped. The
// engine's clock never advances past the last executed event, so a later
// ScheduleMsg from outside still lands in this engine's future.
func (e *Engine) RunWindow(deadline Time, budget uint64) uint64 {
	var n uint64
	for (budget == 0 || n < budget) && e.step(deadline) {
		n++
	}
	return n
}

// CutWindow records, from an event body on this engine, that the event
// handed work to another shard: a cross-shard message, a completed
// machine-wide barrier. A shard running a grown window then stops at the
// end of the current fixed window, where the fixed schedule has the
// barrier that delivers the work (see NewGroup). It changes no event's
// order or timing.
func (e *Engine) CutWindow() { e.cut = true }

// farHeap is the overflow queue for events beyond the wheel window: a plain
// binary min-heap on (at, seq), value-typed so pushes and pops churn no
// allocations once the backing array has grown.
type farHeap []farEvent

func (f *farEvent) before(g *farEvent) bool {
	return f.at < g.at || (f.at == g.at && f.seq < g.seq)
}

func (h *farHeap) push(fe farEvent) {
	*h = append(*h, fe)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p].before(&q[i]) {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

func (h *farHeap) pop() farEvent {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = farEvent{}
	q = q[:n]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && q[l].before(&q[s]) {
			s = l
		}
		if r < n && q[r].before(&q[s]) {
			s = r
		}
		if s == i {
			break
		}
		q[i], q[s] = q[s], q[i]
		i = s
	}
	return top
}
