// Package cpu models the processors driving the coherence simulator: an
// in-order core with blocking loads, a store buffer that overlaps store
// misses (Table 1: up to 16 outstanding L2 misses), compute delays, and
// barrier synchronization. The paper's gains come from eliminating exposed
// remote read latency, which this timing model surfaces directly.
package cpu

import (
	"fmt"
	"sort"
	"sync"

	"pccsim/internal/msg"
	"pccsim/internal/sim"
)

// OpKind enumerates program operations.
type OpKind uint8

const (
	// Load reads an address; the core blocks until data returns.
	Load OpKind = iota
	// Store writes an address; the core continues after issue and the
	// store completes in the background (store buffer).
	Store
	// Compute advances local time without memory traffic.
	Compute
	// Barrier synchronizes all cores after draining the store buffer.
	Barrier
)

// Op is one program operation.
type Op struct {
	Kind   OpKind
	Addr   msg.Addr
	Cycles sim.Time // Compute duration
	Bar    int      // Barrier identifier
}

// Stream supplies a core's operations lazily, so workloads need not
// materialize multi-million-op traces.
type Stream interface {
	Next() (Op, bool)
}

// SliceStream replays a fixed op list.
type SliceStream struct {
	Ops []Op
	i   int
}

// Next returns the next operation.
func (s *SliceStream) Next() (Op, bool) {
	if s.i >= len(s.Ops) {
		return Op{}, false
	}
	op := s.Ops[s.i]
	s.i++
	return op, true
}

// FuncStream adapts a generator function to a Stream.
type FuncStream func() (Op, bool)

// Next calls the generator.
func (f FuncStream) Next() (Op, bool) { return f() }

// BarrierSet materializes barrier objects per identifier. A single-engine
// set (NewBarrierSet) releases immediately in arrival order; a sharded
// set (NewShardedBarrierSet) accepts arrivals from any shard goroutine
// under a mutex and defers releases to Flush, which the machine runs at
// every window barrier.
type BarrierSet struct {
	eng     *sim.Engine
	parties int
	latency sim.Time
	bars    map[int]*barrier

	// Sharded mode: engFor maps a core to its shard's engine (nil on a
	// single engine); mu guards bars and releases between shards.
	engFor   func(msg.NodeID) *sim.Engine
	mu       sync.Mutex
	releases []release
}

type barrier struct {
	arrived int
	maxAt   sim.Time
	waiters []waiter
}

type waiter struct {
	core   msg.NodeID
	resume func()
}

// release is one completed barrier awaiting Flush: every party has
// arrived, the latest arrival was at time at.
type release struct {
	id      int
	at      sim.Time
	waiters []waiter
}

// NewBarrierSet creates barriers over parties cores with the given
// release latency (an idealized synchronization primitive; the reload
// flurry the paper discusses comes from the data accesses that follow).
func NewBarrierSet(eng *sim.Engine, parties int, latency sim.Time) *BarrierSet {
	return &BarrierSet{eng: eng, parties: parties, latency: latency, bars: make(map[int]*barrier)}
}

// NewShardedBarrierSet creates a barrier set for a sharded machine:
// arrivals come from different shard goroutines, so they synchronize on
// a mutex, and releases are deferred to Flush (register it as a window-
// barrier hook). Resumes are scheduled at the latest arrival time plus
// the release latency — the same instant the single-engine set releases
// at — ordered by core id, so the serial and parallel schedulers release
// identically. The completing arrival cuts its shard's window
// (sim.Engine.CutWindow): the release is handed out at the next window
// barrier, which a grown window must not skip.
func NewShardedBarrierSet(engFor func(msg.NodeID) *sim.Engine, parties int, latency sim.Time) *BarrierSet {
	return &BarrierSet{engFor: engFor, parties: parties, latency: latency, bars: make(map[int]*barrier)}
}

// Arrive registers core at barrier id; resume runs once all parties have
// arrived. Barriers are reusable: the generation resets on release.
func (s *BarrierSet) Arrive(id int, core msg.NodeID, resume func()) {
	if s.engFor == nil {
		b := s.bars[id]
		if b == nil {
			b = &barrier{}
			s.bars[id] = b
		}
		b.arrived++
		b.waiters = append(b.waiters, waiter{core: core, resume: resume})
		if b.arrived < s.parties {
			return
		}
		waiters := b.waiters
		b.arrived = 0
		b.waiters = nil
		for _, w := range waiters {
			s.eng.After(s.latency, w.resume)
		}
		return
	}
	eng := s.engFor(core)
	now := eng.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bars[id]
	if b == nil {
		b = &barrier{}
		s.bars[id] = b
	}
	b.arrived++
	if now > b.maxAt {
		b.maxAt = now
	}
	b.waiters = append(b.waiters, waiter{core: core, resume: resume})
	if b.arrived < s.parties {
		return
	}
	s.releases = append(s.releases, release{id: id, at: b.maxAt, waiters: b.waiters})
	b.arrived, b.maxAt, b.waiters = 0, 0, nil
	eng.CutWindow()
}

// Flush schedules the resumes of every barrier completed during the last
// window. It must run at a window barrier (no shard executing); a core's
// resume lands on its own shard's engine at the release time, which that
// engine clamps into its present if it has already advanced past it.
func (s *BarrierSet) Flush() {
	s.mu.Lock()
	rel := s.releases
	s.releases = nil
	s.mu.Unlock()
	if len(rel) == 0 {
		return
	}
	// Arrival order within a window is scheduler-dependent; (barrier id,
	// core id) order is not. Same-id entries cannot collide: a barrier's
	// next generation needs every resumed core to run again first, which
	// can only happen in a later window.
	sort.SliceStable(rel, func(i, j int) bool { return rel[i].id < rel[j].id })
	for _, r := range rel {
		ws := r.waiters
		sort.SliceStable(ws, func(i, j int) bool { return ws[i].core < ws[j].core })
		for _, w := range ws {
			s.engFor(w.core).Schedule(r.at+s.latency, w.resume)
		}
	}
}

// Accessor is the hub interface a CPU drives.
type Accessor interface {
	Access(addr msg.Addr, write bool, done func())
}

// CPU is one in-order core executing a Stream.
type CPU struct {
	id       msg.NodeID
	eng      *sim.Engine
	hub      Accessor
	stream   Stream
	bars     *BarrierSet
	maxStore int

	outstanding int
	pendingOp   *Op  // store stalled on a full buffer
	fencing     bool // waiting for the store buffer to drain at a barrier
	fenceBar    int

	done      bool
	finish    sim.Time
	barriers  uint64
	computeCy sim.Time

	// stepFn and retireFn are the hoisted method values for step and
	// storeRetired: binding them once here keeps the per-operation
	// continuation passing allocation free (a method value used inline
	// allocates its bound closure on every use).
	stepFn   func()
	retireFn func()
}

// New creates a core. maxStore bounds outstanding store misses.
func New(eng *sim.Engine, id msg.NodeID, hub Accessor, stream Stream,
	bars *BarrierSet, maxStore int) *CPU {
	if maxStore < 1 {
		maxStore = 1
	}
	c := &CPU{id: id, eng: eng, hub: hub, stream: stream, bars: bars, maxStore: maxStore}
	c.stepFn = c.step
	c.retireFn = c.storeRetired
	return c
}

// Start schedules the core's first instruction.
func (c *CPU) Start() { c.eng.After(0, c.stepFn) }

// Done reports whether the program finished.
func (c *CPU) Done() bool { return c.done }

// Finish returns the completion time (valid once Done).
func (c *CPU) Finish() sim.Time { return c.finish }

// Barriers returns how many barriers the core has crossed.
func (c *CPU) Barriers() uint64 { return c.barriers }

// step executes operations until the core blocks or the program ends.
func (c *CPU) step() {
	for {
		op, ok := c.stream.Next()
		if !ok {
			c.done = true
			c.finish = c.eng.Now()
			return
		}
		switch op.Kind {
		case Compute:
			c.computeCy += op.Cycles
			c.eng.After(op.Cycles, c.stepFn)
			return
		case Load:
			c.hub.Access(op.Addr, false, c.stepFn)
			return
		case Store:
			if c.outstanding >= c.maxStore {
				op := op
				c.pendingOp = &op
				return // stalled until a store retires
			}
			c.issueStore(op)
			c.eng.After(1, c.stepFn)
			return
		case Barrier:
			c.barriers++
			if c.outstanding > 0 {
				c.fencing = true
				c.fenceBar = op.Bar
				return // the last store retirement arrives at the barrier
			}
			c.bars.Arrive(op.Bar, c.id, c.stepFn)
			return
		default:
			panic(fmt.Sprintf("cpu: core %d got unknown op kind %d", c.id, op.Kind))
		}
	}
}

func (c *CPU) issueStore(op Op) {
	c.outstanding++
	c.hub.Access(op.Addr, true, c.retireFn)
}

func (c *CPU) storeRetired() {
	c.outstanding--
	if c.pendingOp != nil && c.outstanding < c.maxStore {
		op := *c.pendingOp
		c.pendingOp = nil
		c.issueStore(op)
		c.eng.After(1, c.stepFn)
		return
	}
	if c.fencing && c.outstanding == 0 {
		c.fencing = false
		c.bars.Arrive(c.fenceBar, c.id, c.stepFn)
	}
}
