// Package cpu models the processors driving the coherence simulator: an
// in-order core with blocking loads, a store buffer that overlaps store
// misses (Table 1: up to 16 outstanding L2 misses), compute delays, and
// barrier synchronization. The paper's gains come from eliminating exposed
// remote read latency, which this timing model surfaces directly.
package cpu

import (
	"fmt"
	"math"
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

// Op is one program operation, 16 bytes: multi-million-op programs are
// materialized per node, so the encoding is the program's memory cost.
// Addr is the one 64-bit word: the address of a Load or Store, and the
// cycle count of a Compute (read it through Cycles; build it with
// ComputeOp). Bar is a Barrier's identifier (build it with BarrierOp).
type Op struct {
	Addr msg.Addr
	Bar  uint32
	Kind OpKind
}

// ComputeOp returns a Compute op lasting cycles.
func ComputeOp(cycles sim.Time) Op { return Op{Kind: Compute, Addr: msg.Addr(cycles)} }

// BarrierOp returns a Barrier op on barrier id. It panics if id does not
// fit the 32-bit field: a truncated id would merge distinct barriers.
func BarrierOp(id int) Op {
	if id < 0 || id > math.MaxUint32 {
		panic(fmt.Sprintf("cpu: barrier id %d does not fit 32 bits", id))
	}
	return Op{Kind: Barrier, Bar: uint32(id)}
}

// Cycles returns a Compute op's duration.
func (o Op) Cycles() sim.Time { return sim.Time(o.Addr) }

// Stream supplies a core's operations one at a time. A single-engine
// machine runs any Stream; a sharded one needs every program up front and
// takes only SliceStream.
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

// BarrierSet materializes barrier objects per identifier. A single-engine
// set (NewBarrierSet) releases immediately in arrival order; a sharded
// set (NewShardedBarrierSet) accepts arrivals from any shard goroutine
// under a mutex and defers releases to Flush, which the machine runs at
// every window barrier.
type BarrierSet struct {
	eng     *sim.Engine
	parties int
	latency sim.Time
	bars    map[uint32]*barrier

	// Sharded mode: engFor maps a core to its shard's engine (nil on a
	// single engine); mu guards bars and releases between shards.
	engFor   func(msg.NodeID) *sim.Engine
	mu       sync.Mutex
	releases []release
}

type barrier struct {
	arrived int
	maxAt   sim.Time
	waiters []*CPU
}

// release is one completed barrier awaiting Flush: every party has
// arrived, the latest arrival was at time at.
type release struct {
	id      uint32
	at      sim.Time
	waiters []*CPU
}

// NewBarrierSet creates barriers over parties cores with the given
// release latency (an idealized synchronization primitive; the reload
// flurry the paper discusses comes from the data accesses that follow).
func NewBarrierSet(eng *sim.Engine, parties int, latency sim.Time) *BarrierSet {
	return &BarrierSet{eng: eng, parties: parties, latency: latency, bars: make(map[uint32]*barrier)}
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
	return &BarrierSet{engFor: engFor, parties: parties, latency: latency, bars: make(map[uint32]*barrier)}
}

// Arrive registers core c at barrier id; c resumes once all parties have
// arrived. Barriers are reusable: the generation resets on release.
func (s *BarrierSet) Arrive(id uint32, c *CPU) {
	if s.engFor == nil {
		b := s.bars[id]
		if b == nil {
			b = &barrier{}
			s.bars[id] = b
		}
		b.arrived++
		b.waiters = append(b.waiters, c)
		if b.arrived < s.parties {
			return
		}
		waiters := b.waiters
		b.arrived = 0
		b.waiters = nil
		for _, w := range waiters {
			s.eng.AfterMsg(s.latency, w, opStep, nil)
		}
		return
	}
	eng := s.engFor(c.id)
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
	b.waiters = append(b.waiters, c)
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
		sort.SliceStable(ws, func(i, j int) bool { return ws[i].id < ws[j].id })
		for _, w := range ws {
			s.engFor(w.id).ScheduleMsg(r.at+s.latency, w, opStep, nil)
		}
	}
}

// Accessor is the hub interface a CPU drives. When the access completes,
// the hub schedules the event done.HandleMsgEvent(op, nil).
type Accessor interface {
	Access(addr msg.Addr, write bool, done sim.MsgHandler, op uint8)
}

// The CPU's event opcodes (see HandleMsgEvent).
const (
	opStep   uint8 = iota // run the program until the core blocks
	opRetire              // a store left the store buffer
)

// CPU is one in-order core executing a Stream.
type CPU struct {
	id       msg.NodeID
	eng      *sim.Engine
	hub      Accessor
	stream   Stream
	bars     *BarrierSet
	maxStore int

	outstanding int
	pendingOp   Op   // store stalled on a full buffer, if stalled
	stalled     bool // pendingOp holds a store
	fencing     bool // waiting for the store buffer to drain at a barrier
	fenceBar    uint32

	done      bool
	finish    sim.Time
	barriers  uint64
	computeCy sim.Time
}

// New creates a core. maxStore bounds outstanding store misses.
func New(eng *sim.Engine, id msg.NodeID, hub Accessor, stream Stream,
	bars *BarrierSet, maxStore int) *CPU {
	if maxStore < 1 {
		maxStore = 1
	}
	return &CPU{id: id, eng: eng, hub: hub, stream: stream, bars: bars, maxStore: maxStore}
}

// Start schedules the core's first instruction.
func (c *CPU) Start() { c.eng.AfterMsg(0, c, opStep, nil) }

// HandleMsgEvent is the sim.MsgHandler entry point for the core's events:
// resuming the program and retiring a store.
func (c *CPU) HandleMsgEvent(op uint8, _ *msg.Message) {
	if op == opRetire {
		c.storeRetired()
		return
	}
	c.step()
}

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
			c.computeCy += op.Cycles()
			c.eng.AfterMsg(op.Cycles(), c, opStep, nil)
			return
		case Load:
			c.hub.Access(op.Addr, false, c, opStep)
			return
		case Store:
			if c.outstanding >= c.maxStore {
				c.pendingOp, c.stalled = op, true
				return // stalled until a store retires
			}
			c.issueStore(op)
			c.eng.AfterMsg(1, c, opStep, nil)
			return
		case Barrier:
			c.barriers++
			if c.outstanding > 0 {
				c.fencing = true
				c.fenceBar = op.Bar
				return // the last store retirement arrives at the barrier
			}
			c.bars.Arrive(op.Bar, c)
			return
		default:
			panic(fmt.Sprintf("cpu: core %d got unknown op kind %d", c.id, op.Kind))
		}
	}
}

func (c *CPU) issueStore(op Op) {
	c.outstanding++
	c.hub.Access(op.Addr, true, c, opRetire)
}

func (c *CPU) storeRetired() {
	c.outstanding--
	if c.stalled && c.outstanding < c.maxStore {
		c.stalled = false
		c.issueStore(c.pendingOp)
		c.eng.AfterMsg(1, c, opStep, nil)
		return
	}
	if c.fencing && c.outstanding == 0 {
		c.fencing = false
		c.bars.Arrive(c.fenceBar, c)
	}
}
