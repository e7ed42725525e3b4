package core

import (
	"sync/atomic"
	"time"

	"pccsim/internal/mem"
	"pccsim/internal/msg"
	"pccsim/internal/network"
	"pccsim/internal/obs"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
)

// Observer receives lifecycle notifications from a System's event loop.
// Both hooks are optional (nil funcs are skipped). Start fires when the
// event loop begins draining; Done fires when it stops (drained, or cut
// short by the watchdog) with the number of engine events executed by
// this run and the host wall time it took. Observers must not mutate the
// system; they exist so long experiment sweeps can report per-cell
// progress.
type Observer struct {
	Start func(sys *System)
	Done  func(sys *System, steps uint64, wall time.Duration)
}

// System is one simulated cc-NUMA machine: an event engine (or a group
// of shard engines), the fat-tree interconnect, distributed memory, and
// one hub per node.
type System struct {
	Cfg Config
	// Eng is the single-engine scheduler. It is nil when the system is
	// sharded (Cfg.Shards > 1); use EngFor, Now and Steps, which work in
	// both modes.
	Eng  *sim.Engine
	Net  *network.Network
	Mem  *mem.Memory
	Hubs []*Hub
	// Observer optionally watches the event loop; see Observer.
	Observer Observer
	// Obs, when non-nil, receives structured protocol events from every
	// hub (miss lifecycle, delegation lifecycle, speculative-update
	// outcomes). Attach it with AttachObs so the interconnect emits into
	// the same sink; a nil Obs costs one pointer check per potential
	// event. On a sharded system events are staged in per-shard buffers
	// and merged into this sink at window barriers, ordered by (time,
	// shard).
	Obs *obs.Sink
	// NodeStats holds each node's counters; Aggregate folds them.
	NodeStats []*stats.Stats
	// netStats holds the interconnect traffic each shard's nodes send
	// (one collector on a single engine); Aggregate folds them.
	netStats []*stats.Stats
	glob     *global

	// Sharded-mode state (nil/empty on the classic single engine).
	grp     *sim.Group
	shardOf []int
	shards  []*shardState
	obsBufs []*obs.Sink
	// checkSeen dedupes deferred invariant checks within one barrier.
	checkSeen map[msg.Addr]struct{}

	// intr is the cooperative-cancellation flag armed on both schedulers
	// at construction; see Interrupt.
	intr atomic.Bool
}

// shardState is one shard's core-layer staging area: cross-shard hub
// calls and invariant checks deferred during a window. Appended only by
// the owning shard's goroutine, drained only by the coordinator at
// barriers.
type shardState struct {
	xcalls []xcall
	checks []msg.Addr
}

// xcall is a deferred cross-shard hub call — the link-level
// update-delivered notification, the one place a hub pokes a hub on
// another shard directly instead of through a network message.
type xcall struct {
	at   sim.Time
	node msg.NodeID
	addr msg.Addr
}

// windowAllowanceCap bounds a grown window to this many lookaheads
// (~200k cycles at the default radix), which dwarfs the longest compute
// block in the bundled workloads while keeping the interrupt poll at
// window barriers responsive. Windows of a sharded machine always grow:
// every hand-off between shards — network messages, barrier completions
// and deferred update-delivered notifications — is reported through
// sim.Engine.CutWindow, so growth changes no result, only the barrier
// count.
const windowAllowanceCap = 1024

// NewSystem builds a machine from cfg. With cfg.Shards > 1 the machine
// is partitioned into contiguous node groups, each with a private event
// engine, synchronized through conservative time windows; see the
// package comments on sim.Group and network's sharded mode.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Network.Nodes = cfg.Nodes
	sys := &System{
		Cfg:       cfg,
		Mem:       mem.New(4096),
		glob:      newGlobal(cfg.CheckInvariants),
		NodeStats: make([]*stats.Stats, cfg.Nodes),
	}
	if n := cfg.Shards; n > 1 {
		sys.shardOf = make([]int, cfg.Nodes)
		for i := range sys.shardOf {
			sys.shardOf[i] = i * n / cfg.Nodes
		}
		look := network.MinLookahead(cfg.Network, sys.shardOf)
		sys.grp = sim.NewGroup(n, look, look*windowAllowanceCap, cfg.ShardsParallel)
		sys.netStats = make([]*stats.Stats, n)
		sys.shards = make([]*shardState, n)
		for i := 0; i < n; i++ {
			sys.netStats[i] = stats.New()
			sys.shards[i] = &shardState{}
		}
		sys.Net = network.NewSharded(sys.grp, cfg.Network, sys.shardOf, sys.netStats)
		if sys.grp.Parallel() {
			// A serial group runs every shard on one goroutine, so only
			// worker goroutines need the oracle's and page table's locks.
			sys.glob.enableSharing()
			sys.Mem.EnableSharedAccess()
		}
		if cfg.CheckInvariants {
			sys.checkSeen = make(map[msg.Addr]struct{})
		}
		// Registered after the network's mailbox drain: staged messages
		// land before deferred checks and the obs merge run.
		sys.grp.OnBarrier(sys.shardBarrier)
		sys.grp.SetInterrupt(&sys.intr)
	} else {
		eng := sim.NewEngine()
		sys.Eng = eng
		sys.netStats = []*stats.Stats{stats.New()}
		sys.Net = network.New(eng, cfg.Network, sys.netStats[0])
		eng.SetInterrupt(&sys.intr)
	}
	sys.Hubs = make([]*Hub, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		sys.NodeStats[i] = stats.New()
		sys.Hubs[i] = newHub(sys, msg.NodeID(i), sys.NodeStats[i])
	}
	return sys, nil
}

// Sharded reports whether the system runs on the shard-group scheduler.
func (s *System) Sharded() bool { return s.grp != nil }

// EngFor returns the engine that owns node n's events — the single
// engine, or n's shard's.
func (s *System) EngFor(n msg.NodeID) *sim.Engine {
	if s.grp == nil {
		return s.Eng
	}
	return s.grp.Engine(s.shardOf[n])
}

// Steps reports engine events executed, summed across shards.
func (s *System) Steps() uint64 {
	if s.grp != nil {
		return s.grp.Steps()
	}
	return s.Eng.Steps()
}

// Now reports the simulation clock (the furthest shard when sharded).
func (s *System) Now() sim.Time {
	if s.grp != nil {
		return s.grp.Now()
	}
	return s.Eng.Now()
}

// Group exposes the shard group (nil on a single-engine system); layers
// above use it to register barrier hooks and to drive guarded runs.
func (s *System) Group() *sim.Group { return s.grp }

// AttachObs points both the hubs and the interconnect at sink. If a sink
// was already attached and had a Tap (e.g. a trace recorder riding it),
// the old tap is chained onto the new sink so no consumer goes deaf.
//
// On a sharded system the hubs and the network emit into per-shard
// staging buffers instead, and the coordinator merges them into sink at
// every window barrier ordered by (time, shard) — an order identical
// under the serial and parallel schedulers.
func (s *System) AttachObs(sink *obs.Sink) {
	if prev := s.Obs; prev != nil && prev.Tap != nil && prev != sink {
		sink.OnEvent(prev.Tap)
	}
	s.Obs = sink
	if s.grp == nil {
		s.Net.SetObs(0, sink)
		for _, h := range s.Hubs {
			h.obs = sink
		}
		return
	}
	if s.obsBufs == nil {
		s.obsBufs = make([]*obs.Sink, s.grp.Shards())
		for i := range s.obsBufs {
			s.obsBufs[i] = obs.NewBuffer()
			s.Net.SetObs(i, s.obsBufs[i])
		}
	}
	for i, h := range s.Hubs {
		h.obs = s.obsBufs[s.shardOf[i]]
	}
}

// deferUpdateDelivered stages a cross-shard updateDelivered notification
// from the consumer's shard; shardBarrier injects it into the producer's
// engine at the next window boundary, timestamped with the consumer's
// clock (the producer's engine clamps it into its own present). Like a
// cross-shard message, the hand-off ends a grown window where the fixed
// schedule has its barrier.
func (s *System) deferUpdateDelivered(consumer, producer msg.NodeID, addr msg.Addr) {
	eng := s.EngFor(consumer)
	eng.CutWindow()
	sh := s.shards[s.shardOf[consumer]]
	sh.xcalls = append(sh.xcalls, xcall{
		at:   eng.Now(),
		node: producer,
		addr: addr,
	})
}

// shardBarrier is the core layer's window-barrier hook. It runs on the
// coordinator with every shard parked (so it may touch any shard's
// state), after the network has drained its mailboxes: inject deferred
// cross-shard hub calls, run the invariant checks deferred during the
// window, and merge the shard-local observability buffers.
func (s *System) shardBarrier() {
	for _, sh := range s.shards {
		for i := range sh.xcalls {
			c := sh.xcalls[i]
			eng := s.EngFor(c.node)
			m := eng.NewMsg()
			*m = msg.Message{Type: msg.Update, Addr: c.addr}
			eng.ScheduleMsg(c.at, s.Hubs[c.node], opUpdateDelivered, m)
		}
		sh.xcalls = sh.xcalls[:0]
	}
	if s.checkSeen != nil {
		checked := false
		for _, sh := range s.shards {
			for _, a := range sh.checks {
				if _, dup := s.checkSeen[a]; dup {
					continue
				}
				s.checkSeen[a] = struct{}{}
				checked = true
				s.CheckLine(a)
			}
			sh.checks = sh.checks[:0]
		}
		if checked {
			clear(s.checkSeen)
		}
	}
	s.flushShardObs()
}

// flushShardObs merges the per-shard staging buffers into the user sink,
// ordered by (event time, shard index). Each buffer is already
// time-sorted (a shard's clock is monotonic), so this is a linear k-way
// merge; its result does not depend on which scheduler ran the window,
// because the buffer contents do not.
func (s *System) flushShardObs() {
	if s.Obs == nil || s.obsBufs == nil {
		return
	}
	total := 0
	for _, b := range s.obsBufs {
		total += len(b.Buffered())
	}
	if total == 0 {
		return
	}
	pos := make([]int, len(s.obsBufs))
	for emitted := 0; emitted < total; emitted++ {
		best := -1
		var bestAt sim.Time
		for i, b := range s.obsBufs {
			evs := b.Buffered()
			if pos[i] >= len(evs) {
				continue
			}
			if at := evs[pos[i]].At; best < 0 || at < bestAt {
				best, bestAt = i, at
			}
		}
		s.Obs.Emit(s.obsBufs[best].Buffered()[pos[best]])
		pos[best]++
	}
	for _, b := range s.obsBufs {
		b.ResetBuffer()
	}
}

// Access issues one memory operation on node n's hub; see Hub.Access.
func (s *System) Access(n msg.NodeID, addr msg.Addr, write bool, done sim.MsgHandler, op uint8) {
	s.Hubs[n].Access(addr, write, done, op)
}

// RunGuarded drains the event queue under the configured watchdog budget
// (Config.WatchdogSteps; 0 = unlimited), notifying the Observer around the
// loop. On a runaway it returns the wrapped *sim.RunawayError with the
// pending-event context intact (aggregated across shards when sharded).
func (s *System) RunGuarded() (sim.Time, error) {
	if s.Observer.Start != nil {
		s.Observer.Start(s)
	}
	start := time.Now()
	before := s.Steps()
	var t sim.Time
	var err error
	if s.grp != nil {
		// A protocol panic aborts mid-window with events still staged in
		// the shard obs buffers; flush them so post-mortem consumers (the
		// fuzzer's repro trace) see the run's full event tail. This runs
		// after the group has parked its workers, so the buffers are
		// quiescent.
		defer func() {
			if r := recover(); r != nil {
				s.flushShardObs()
				panic(r)
			}
		}()
		t, err = s.grp.RunGuarded(s.Cfg.WatchdogSteps)
		// A watchdog abort leaves the killed window's events staged.
		s.flushShardObs()
	} else {
		t, err = s.Eng.RunGuarded(s.Cfg.WatchdogSteps)
	}
	if s.Observer.Done != nil {
		s.Observer.Done(s, s.Steps()-before, time.Since(start))
	}
	return t, err
}

// Interrupt asks a running simulation to stop cooperatively: the event
// loop notices the flag between events (single engine) or at the next
// window barrier (sharded) and RunGuarded returns sim.ErrInterrupted.
// Safe to call from any goroutine, before or during a run; calling it
// after a run merely makes the next run stop immediately. It never
// perturbs event order, so a run that finishes before the flag is seen
// is bit-identical to an uninterrupted one.
func (s *System) Interrupt() { s.intr.Store(true) }

// LatestVersion exposes the data-version oracle (tests use it to confirm
// consumers saw produced values). It panics unless the system was built
// with CheckInvariants: only a checked run keeps the oracle's table.
func (s *System) LatestVersion(addr msg.Addr) uint64 {
	return s.glob.latestVersion(s.Hubs[0].line(addr))
}

// Aggregate folds per-node and interconnect statistics into one report.
// ExecCycles is set to the engine's current time.
func (s *System) Aggregate() *stats.Stats {
	agg := stats.New()
	for _, st := range s.NodeStats {
		agg.Add(st)
	}
	for _, st := range s.netStats {
		agg.Add(st)
	}
	agg.ExecCycles = uint64(s.Now())
	return agg
}
