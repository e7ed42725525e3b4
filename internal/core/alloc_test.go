package core

import (
	"testing"

	"pccsim/internal/cache"
	"pccsim/internal/msg"
	"pccsim/internal/stats"
)

// doneCounter is an allocation-free completion handler for Access.
type doneCounter struct{ n int }

func (d *doneCounter) HandleMsgEvent(uint8, *msg.Message) { d.n++ }

// TestAccessZeroAlloc pins the hub's steady state at zero allocations per
// access: once caches, MSHRs, the message pool and the engine's event
// slab are warm, none of these paths allocates. Each case drains the
// system inside the measured run, so its completions, retries and timers
// are measured too, and checks afterwards that its path really ran.
func TestAccessZeroAlloc(t *testing.T) {
	const (
		local  = msg.Addr(0x1000) // homed on node 0
		remote = msg.Addr(0x9000) // homed on node 0, read by node 1
		hot    = msg.Addr(0xd000) // written by eight nodes at once
		pc     = msg.Addr(0x8000) // producer-consumer line, delegated to node 0
	)
	for _, c := range []struct {
		name  string
		opts  []Option
		setup func(t *testing.T, sys *System)
		run   func(sys *System, d *doneCounter)
		ran   func(b, a *stats.Stats, d *doneCounter, runs uint64) bool
	}{
		{
			name:  "L1 hit",
			setup: func(t *testing.T, sys *System) { access(t, sys, 0, local, false) },
			run: func(sys *System, d *doneCounter) {
				sys.Access(0, local, false, d, 0)
				drain(sys)
			},
			ran: func(b, a *stats.Stats, d *doneCounter, runs uint64) bool { return a.L1Hits-b.L1Hits >= runs },
		},
		{
			name:  "L2 hit",
			setup: func(t *testing.T, sys *System) { access(t, sys, 0, local, false) },
			run: func(sys *System, d *doneCounter) {
				h := sys.Hubs[0]
				h.dropL1(*h.l2.Lookup(local))
				sys.Access(0, local+32, false, d, 0)
				drain(sys)
			},
			ran: func(b, a *stats.Stats, d *doneCounter, runs uint64) bool { return a.L2Hits-b.L2Hits >= runs },
		},
		{
			name: "RAC hit",
			opts: []Option{WithRAC(32)},
			setup: func(t *testing.T, sys *System) {
				access(t, sys, 0, remote, false)
				access(t, sys, 1, remote, false)
			},
			run: func(sys *System, d *doneCounter) {
				// Move node 1's copy from L2 to the RAC, as an eviction
				// would, then read it back from there.
				h := sys.Hubs[1]
				v := h.l2.Lookup(remote).Version
				h.dropL1(h.l2.Invalidate(remote))
				rl, _, _ := h.rc.Insert(remote, cache.Shared)
				rl.Version = v
				sys.Access(1, remote, false, d, 0)
				drain(sys)
			},
			ran: func(b, a *stats.Stats, d *doneCounter, runs uint64) bool { return a.RACHits-b.RACHits >= runs },
		},
		{
			name: "MSHR merge",
			setup: func(t *testing.T, sys *System) {
				access(t, sys, 0, remote, false)
				access(t, sys, 1, remote, false)
			},
			run: func(sys *System, d *doneCounter) {
				// Drop node 1's Shared copy silently (a clean victim),
				// then miss twice on the line: the second access
				// merges into the first one's MSHR.
				h := sys.Hubs[1]
				h.dropL1(h.l2.Invalidate(remote))
				sys.Access(1, remote, false, d, 0)
				sys.Access(1, remote+32, false, d, 0)
				drain(sys)
			},
			ran: func(b, a *stats.Stats, d *doneCounter, runs uint64) bool {
				return uint64(d.n) >= 2*runs && a.Misses[stats.MissRemote2Hop]-b.Misses[stats.MissRemote2Hop] >= runs
			},
		},
		{
			name:  "NACK retry",
			setup: func(t *testing.T, sys *System) { access(t, sys, 0, hot, false) },
			run: func(sys *System, d *doneCounter) {
				for n := msg.NodeID(1); n <= 8; n++ {
					sys.Access(n, hot, true, d, 0)
				}
				drain(sys)
			},
			ran: func(b, a *stats.Stats, d *doneCounter, runs uint64) bool {
				return uint64(d.n) >= 8*runs && a.Retries-b.Retries >= runs
			},
		},
		{
			name: "intervention timer",
			opts: []Option{WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0)},
			setup: func(t *testing.T, sys *System) {
				pcRounds(t, sys, pc, 3, 0, []msg.NodeID{1, 2}, 4) // detect + delegate
			},
			run: func(sys *System, d *doneCounter) {
				sys.Access(0, pc, true, d, 0)
				drain(sys) // the write, then its delayed intervention
				sys.Access(1, pc, false, d, 0)
				sys.Access(2, pc, false, d, 0)
				drain(sys)
			},
			ran: func(b, a *stats.Stats, d *doneCounter, runs uint64) bool {
				return a.Interventions-b.Interventions >= runs && a.RACHits-b.RACHits >= runs
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			sys := newTestSystem(t, DefaultConfig().With(c.opts...))
			c.setup(t, sys)
			d := &doneCounter{}
			// Warm the pools, the tables and the engine's event slab.
			for i := 0; i < 8; i++ {
				c.run(sys, d)
			}
			before := sys.Aggregate()
			d.n = 0
			const runs = 100
			allocs := testing.AllocsPerRun(runs, func() { c.run(sys, d) })
			if allocs != 0 {
				t.Errorf("%v allocs per run, want 0", allocs)
			}
			if after := sys.Aggregate(); !c.ran(before, after, d, runs) {
				t.Errorf("the path under test did not run every time (%d completions)", d.n)
			}
		})
	}
}
