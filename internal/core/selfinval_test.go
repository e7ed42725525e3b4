package core

import (
	"testing"

	"pccsim/internal/msg"
	"pccsim/internal/sim/simtest"
	"pccsim/internal/stats"
)

// Tests for the dynamic-self-invalidation baseline (related work the paper
// compares against: eager downgrades convert 3-hop reads to 2-hop home
// hits, but never to local hits).

func selfInvalConfig() Config {
	return testConfig().With(WithProtocol("dsi"))
}

func TestSelfInvalidateConverts3HopTo2Hop(t *testing.T) {
	runCfg := func(cfg Config) *stats.Stats {
		sys := newTestSystem(t, cfg)
		addr := msg.Addr(0x8000)
		access(t, sys, 3, addr, false) // home = 3, producer = 0: 3-hop shape
		// Rounds chained through simulated time: consumers read 2000
		// cycles after each write (enough for the 50-cycle downgrade to
		// land, off the critical path), next write 3000 later.
		const rounds = 10
		finished := false
		var round func(r int)
		round = func(r int) {
			if r == rounds {
				finished = true
				return
			}
			sys.Access(0, addr, true, simtest.Func(func() {
				simtest.After(sys.Eng, 2000, func() {
					pending := 2
					rdone := func() {
						pending--
						if pending == 0 {
							simtest.After(sys.Eng, 3000, func() { round(r + 1) })
						}
					}
					sys.Access(1, addr, false, simtest.Func(rdone), 0)
					sys.Access(2, addr, false, simtest.Func(rdone), 0)
				})
			}), 0)
		}
		round(0)
		drain(sys)
		if !finished {
			t.Fatal("round chain incomplete")
		}
		sys.CheckAll()
		return sys.Aggregate()
	}
	base := runCfg(testConfig())
	dsi := runCfg(selfInvalConfig())

	if dsi.SelfDowngrades == 0 {
		t.Fatal("no eager downgrades recorded")
	}
	if dsi.Misses[stats.MissRemote3Hop] >= base.Misses[stats.MissRemote3Hop] {
		t.Fatalf("self-invalidation did not cut 3-hop misses: %d >= %d",
			dsi.Misses[stats.MissRemote3Hop], base.Misses[stats.MissRemote3Hop])
	}
	// The defining contrast with the paper's updates: consumer reads
	// stay remote (2-hop), never local.
	if dsi.Misses[stats.MissLocalRAC] != 0 {
		t.Fatalf("self-invalidation produced local RAC hits: %d", dsi.Misses[stats.MissLocalRAC])
	}
	if dsi.RemoteMisses() < base.RemoteMisses() {
		// Remote-miss *count* stays (they get cheaper, not fewer);
		// allow equality but not reduction.
		t.Fatalf("self-invalidation reduced remote-miss count: %d < %d",
			dsi.RemoteMisses(), base.RemoteMisses())
	}
	if dsi.ExecCycles >= base.ExecCycles {
		t.Fatalf("self-invalidation not faster: %d >= %d", dsi.ExecCycles, base.ExecCycles)
	}
}

func TestSelfInvalidateExclusiveWithDelegation(t *testing.T) {
	cfg := DefaultConfig().With(WithProtocol("dsi"), WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("self-invalidation combined with delegation accepted")
	}
}

// An eager downgrade crossing a read intervention: the home completes the
// read from the pushed data; no deadlock, data current.
func TestSelfInvalidateCrossingRead(t *testing.T) {
	cfg := selfInvalConfig()
	cfg.InterventionDelay = 400 // wide window for the crossing
	sys := newTestSystem(t, cfg)
	addr := msg.Addr(0x9000)
	access(t, sys, 3, addr, false)
	// Establish detection.
	for round := 0; round < 4; round++ {
		access(t, sys, 0, addr, true)
		access(t, sys, 1, addr, false)
	}
	// Producer writes; a consumer read is issued inside the downgrade
	// window so the intervention and the eager writeback cross.
	done := 0
	sys.Access(0, addr, true, simtest.Func(func() {
		simtest.After(sys.Eng, 100, func() {
			sys.Access(1, addr, false, simtest.Func(func() { done++ }), 0)
		})
	}), 0)
	drain(sys)
	if done != 1 {
		t.Fatal("crossing read never completed")
	}
	sys.CheckAll()
	if err := sys.QuiesceCheck(); err != nil {
		t.Fatal(err)
	}
	if v := sys.LatestVersion(addr); v != 5 {
		t.Fatalf("version = %d, want 5", v)
	}
}

// An eager downgrade crossing a write transfer: the pending writer is
// granted from the pushed data and the downgraded owner's retained copy is
// invalidated.
func TestSelfInvalidateCrossingWrite(t *testing.T) {
	cfg := selfInvalConfig()
	cfg.InterventionDelay = 400
	sys := newTestSystem(t, cfg)
	addr := msg.Addr(0xa000)
	access(t, sys, 3, addr, false)
	for round := 0; round < 4; round++ {
		access(t, sys, 0, addr, true)
		access(t, sys, 1, addr, false)
	}
	done := 0
	sys.Access(0, addr, true, simtest.Func(func() {
		simtest.After(sys.Eng, 100, func() {
			sys.Access(5, addr, true, simtest.Func(func() { done++ }), 0)
		})
	}), 0)
	drain(sys)
	if done != 1 {
		t.Fatal("crossing write never completed")
	}
	sys.CheckAll()
	if err := sys.QuiesceCheck(); err != nil {
		t.Fatal(err)
	}
	if v := sys.LatestVersion(addr); v != 6 {
		t.Fatalf("version = %d, want 6", v)
	}
}

// Random stress under self-invalidation with all invariants on.
func TestSelfInvalidateStress(t *testing.T) {
	cfg := selfInvalConfig()
	cfg.Nodes = 6
	cfg.InterventionDelay = 200
	sys := newTestSystem(t, cfg)
	issued, completed := 0, 0
	for step := 0; step < 3000; step++ {
		n := msg.NodeID(step * 5 % cfg.Nodes)
		addr := msg.Addr(step*11%40) * 128
		write := step%3 == 0
		issued++
		sys.Access(n, addr, write, simtest.Func(func() { completed++ }), 0)
		if step%4 == 0 {
			drain(sys)
		}
	}
	drain(sys)
	if completed != issued {
		t.Fatalf("%d of %d accesses completed", completed, issued)
	}
	sys.CheckAll()
	if err := sys.QuiesceCheck(); err != nil {
		t.Fatal(err)
	}
}
