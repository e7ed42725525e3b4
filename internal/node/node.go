// Package node composes a full machine: the coherence system of
// internal/core plus one modeled processor per hub, and runs complete
// shared-memory programs on it.
package node

import (
	"fmt"

	"pccsim/internal/core"
	"pccsim/internal/cpu"
	"pccsim/internal/msg"
	"pccsim/internal/obs"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
)

// Machine is a simulated multiprocessor ready to execute programs.
type Machine struct {
	Sys  *core.System
	CPUs []*cpu.CPU
	Bars *cpu.BarrierSet
}

// Option customizes a Machine at construction time.
type Option func(*Machine)

// WithObserver threads a progress observer down to the core.System event
// loop, so a long run reports when its simulation starts and finishes,
// how many engine events it executed, and how long it took in host time.
func WithObserver(obs core.Observer) Option {
	return func(m *Machine) { m.Sys.Observer = obs }
}

// WithSink attaches a structured-event sink (internal/obs) to the
// machine's protocol layers and interconnect before any program runs, so
// the sink sees the whole execution. A nil sink is ignored.
func WithSink(s *obs.Sink) Option {
	return func(m *Machine) {
		if s != nil {
			m.Sys.AttachObs(s)
		}
	}
}

// New builds a machine from cfg.
func New(cfg core.Config, opts ...Option) (*Machine, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	m := &Machine{Sys: sys}
	if sys.Sharded() {
		// Cores arrive at barriers from different shard goroutines;
		// completed barriers release at the group's window boundaries.
		m.Bars = cpu.NewShardedBarrierSet(sys.EngFor, cfg.Nodes, cfg.BarrierLatency)
		sys.Group().OnBarrier(m.Bars.Flush)
	} else {
		m.Bars = cpu.NewBarrierSet(sys.Eng, cfg.Nodes, cfg.BarrierLatency)
	}
	for _, o := range opts {
		o(m)
	}
	return m, nil
}

// preplaceFirstTouch homes every page the programs touch before the
// first event, by a scheduler-independent first-touch rule: the earliest
// barrier epoch wins, ties to the lowest node id. Resolving first touch
// during the run would let the winner depend on the shard count: barnes'
// octree build has a cell array's pages stored by both the owner and a
// remote builder before the first barrier, and across shards both stores
// can fall in one conservative window. One static rule gives every
// scheduler and shard count the same placement. That needs every program
// up front, which is why Run takes only slice streams.
func (m *Machine) preplaceFirstTouch(streams []*cpu.SliceStream) {
	type claim struct {
		epoch int
		node  msg.NodeID
	}
	mask := ^msg.Addr(m.Sys.Mem.PageBytes() - 1)
	best := make(map[msg.Addr]claim)
	for i, s := range streams {
		epoch := 0
		for _, op := range s.Ops {
			switch op.Kind {
			case cpu.Barrier:
				epoch++
			case cpu.Load, cpu.Store:
				page := op.Addr & mask
				c, seen := best[page]
				if !seen || epoch < c.epoch || (epoch == c.epoch && msg.NodeID(i) < c.node) {
					best[page] = claim{epoch: epoch, node: msg.NodeID(i)}
				}
			}
		}
	}
	for page, c := range best {
		m.Sys.Mem.Place(page, c.node)
	}
}

// Interrupt asks an in-flight Run to stop cooperatively: the event loop
// notices between events and Run returns an error wrapping
// sim.ErrInterrupted. Safe from any goroutine; see core.System.Interrupt.
func (m *Machine) Interrupt() { m.Sys.Interrupt() }

// Run executes one stream per node to completion and returns aggregated
// statistics; ExecCycles is the parallel-phase makespan (the time the last
// core finishes). It returns an error if the program deadlocks (the event
// queue drains with unfinished cores), livelocks (the configured watchdog
// budget is exhausted before the queue drains) or leaves transient
// protocol state. Every stream must be a *cpu.SliceStream: Run places
// every page before the first event (see preplaceFirstTouch).
func (m *Machine) Run(streams []cpu.Stream) (*stats.Stats, error) {
	if len(streams) != m.Sys.Cfg.Nodes {
		return nil, fmt.Errorf("node: %d streams for %d nodes", len(streams), m.Sys.Cfg.Nodes)
	}
	progs := make([]*cpu.SliceStream, len(streams))
	for i, s := range streams {
		ss, ok := s.(*cpu.SliceStream)
		if !ok {
			return nil, fmt.Errorf("node: run needs *cpu.SliceStream programs, stream %d is %T", i, s)
		}
		progs[i] = ss
	}
	m.preplaceFirstTouch(progs)
	m.CPUs = make([]*cpu.CPU, len(streams))
	for i, s := range streams {
		m.CPUs[i] = cpu.New(m.Sys.EngFor(msg.NodeID(i)), msg.NodeID(i), m.Sys.Hubs[i], s, m.Bars, m.Sys.Cfg.MaxStores)
		m.CPUs[i].Start()
	}
	if _, err := m.Sys.RunGuarded(); err != nil {
		unfinished := 0
		for _, c := range m.CPUs {
			if !c.Done() {
				unfinished++
			}
		}
		return nil, fmt.Errorf("node: %d/%d cores unfinished: %w",
			unfinished, len(m.CPUs), err)
	}

	var makespan sim.Time
	for i, c := range m.CPUs {
		if !c.Done() {
			return nil, fmt.Errorf("node: core %d did not finish (deadlock?)", i)
		}
		if c.Finish() > makespan {
			makespan = c.Finish()
		}
	}
	if err := m.Sys.QuiesceCheck(); err != nil {
		return nil, fmt.Errorf("node: program drained dirty: %w", err)
	}
	agg := m.Sys.Aggregate()
	agg.ExecCycles = uint64(makespan)
	var bars uint64
	for _, c := range m.CPUs {
		bars += c.Barriers()
	}
	agg.Barriers = bars
	return agg, nil
}
