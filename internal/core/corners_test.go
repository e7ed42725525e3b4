package core

import (
	"testing"

	"pccsim/internal/msg"
	"pccsim/internal/stats"
)

// Directed tests for protocol corner cases: structure exhaustion, hint
// thrash, detector pressure, and the home-is-producer update path.

// When every way of the RAC set a new delegation maps to is already pinned,
// the delegation cannot be hosted: the write completes and the line is
// immediately undelegated (§2.3.3 reason 2). The system must stay coherent.
func TestRACPinExhaustionUndelegates(t *testing.T) {
	cfg := testConfig().With(WithDelegation(32), WithSpeculativeUpdates(0))
	cfg.RACBytes = 4 * 128 // single-set, 4-way RAC
	sys := newTestSystem(t, cfg)
	// Delegate five distinct lines to producer 0 (homes elsewhere); all
	// five map to the one RAC set, so the fifth pin must fail.
	for i := 0; i < 5; i++ {
		addr := msg.Addr(0x10000 * (i + 1))
		home := msg.NodeID(3 + i%4)
		pcRounds(t, sys, addr, home, 0, []msg.NodeID{1, 2}, 5)
	}
	st := sys.Aggregate()
	if st.Delegations < 5 {
		t.Fatalf("expected 5 delegations, got %d", st.Delegations)
	}
	if st.Undelegations[stats.UndelFlush] == 0 {
		t.Fatal("no flush undelegation despite pin exhaustion")
	}
	if got := sys.Hubs[0].rc.PinnedCount(); got > 4 {
		t.Fatalf("%d pinned entries in a 4-way set", got)
	}
	sys.CheckAll()
	if err := sys.QuiesceCheck(); err != nil {
		t.Fatal(err)
	}
}

// A tiny consumer table thrashes hints; consumers must still reach
// delegated lines through the home's forwarding path.
func TestConsumerTableThrash(t *testing.T) {
	cfg := testConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
	cfg.ConsumerEntries = 4 // one set, constant eviction
	sys := newTestSystem(t, cfg)
	for i := 0; i < 6; i++ {
		addr := msg.Addr(0x20000 * (i + 1))
		pcRounds(t, sys, addr, 3, 0, []msg.NodeID{1, 2, 4}, 5)
	}
	// Fresh consumers (not in any update set) must route through the
	// home, which forwards and hints; the tiny table then evicts most
	// hints, and later reads repeat the forward path.
	for i := 0; i < 6; i++ {
		addr := msg.Addr(0x20000 * (i + 1))
		for _, c := range []msg.NodeID{5, 6, 7, 8} {
			access(t, sys, c, addr, false)
		}
	}
	st := sys.Aggregate()
	if st.Delegations == 0 {
		t.Fatal("no delegations")
	}
	if st.MsgCount[msg.NewHomeHint] == 0 {
		t.Fatal("no hints issued despite forwarding")
	}
	if got := sys.Hubs[5].cons.Count(); got > 4 {
		t.Fatalf("consumer table holds %d entries, cap 4", got)
	}
	sys.CheckAll()
}

// A starved directory cache loses detector history between rounds, so
// fewer lines are ever marked producer-consumer than with the 8K-entry
// cache; correctness is unaffected.
func TestDirCachePressureLimitsDetection(t *testing.T) {
	run := func(entries int) *stats.Stats {
		cfg := testConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
		cfg.DirCacheEntries = entries
		sys := newTestSystem(t, cfg)
		// Interleave rounds over many lines homed at node 3 so their
		// detector entries compete for the same directory cache.
		lines := make([]msg.Addr, 24)
		for i := range lines {
			lines[i] = msg.Addr(0x100000 + i*128)
			access(t, sys, 3, lines[i], false)
		}
		for round := 0; round < 5; round++ {
			for _, a := range lines {
				access(t, sys, 0, a, true)
			}
			for _, a := range lines {
				access(t, sys, 1, a, false)
			}
		}
		sys.CheckAll()
		return sys.Aggregate()
	}
	big := run(8192)
	small := run(4) // 1 set of 4 in the pressure range
	if big.PCLinesMarked == 0 {
		t.Fatal("big dircache detected nothing")
	}
	if small.PCLinesMarked >= big.PCLinesMarked {
		t.Fatalf("tiny dircache detected as much as the big one: %d >= %d",
			small.PCLinesMarked, big.PCLinesMarked)
	}
	if small.DirCacheEvicts == 0 {
		t.Fatal("tiny dircache recorded no evictions")
	}
}

// Two simultaneous upgrades: the loser's copy is invalidated, its upgrade
// NACKed, and the retry must fall back to a full GetExcl. Both writes
// complete and versions are exact.
func TestUpgradeRaceFallsBackToGetExcl(t *testing.T) {
	sys := newTestSystem(t, testConfig())
	addr := msg.Addr(0x30000)
	access(t, sys, 0, addr, false) // home = 0
	access(t, sys, 1, addr, false)
	access(t, sys, 2, addr, false) // both hold Shared copies
	done := 0
	sys.Access(1, addr, true, func() { done++ })
	sys.Access(2, addr, true, func() { done++ })
	sys.Run()
	if done != 2 {
		t.Fatalf("%d of 2 racing upgrades completed", done)
	}
	if v := sys.LatestVersion(addr); v != 2 {
		t.Fatalf("version = %d, want 2", v)
	}
	st := sys.Aggregate()
	if st.Retries == 0 {
		t.Fatal("no retry recorded for the losing upgrade")
	}
	sys.CheckAll()
}

// With updates enabled but the intervention disabled (infinite delay), a
// consumer read finds the producer still exclusive and forces an immediate
// downgrade; data must be current.
func TestInfiniteDelayConsumerForcesDowngrade(t *testing.T) {
	cfg := testConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
	cfg.InterventionDelay = NoIntervention
	sys := newTestSystem(t, cfg)
	addr := msg.Addr(0x40000)
	pcRounds(t, sys, addr, 3, 0, []msg.NodeID{1, 2}, 6)
	st := sys.Aggregate()
	if st.UpdatesSent != 0 {
		t.Fatalf("updates sent with infinite delay: %d", st.UpdatesSent)
	}
	if st.Delegations == 0 {
		t.Fatal("no delegation")
	}
	// The consumers' observe() checks inside pcRounds already assert
	// they saw current data; verify the final version too.
	if v := sys.LatestVersion(addr); v != 6 {
		t.Fatalf("version = %d, want 6", v)
	}
}

// When the producer IS the home node, no delegation is needed: the home
// directory entry itself runs the delayed-intervention/update flow (§2.4.2
// describes exactly this ownerID + old-sharing-vector mechanism on the
// directory entry).
func TestHomeProducerUpdatesWithoutDelegation(t *testing.T) {
	cfg := testConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
	sys := newTestSystem(t, cfg)
	addr := msg.Addr(0x50000)
	// Producer 0 first-touches: home == producer.
	for round := 0; round < 6; round++ {
		access(t, sys, 0, addr, true)
		access(t, sys, 1, addr, false)
		access(t, sys, 2, addr, false)
	}
	st := sys.Aggregate()
	if st.Delegations != 0 {
		t.Fatalf("home-producer line was delegated %d times", st.Delegations)
	}
	if st.UpdatesSent == 0 {
		t.Fatal("home-producer path sent no updates")
	}
	if st.Misses[stats.MissLocalRAC] == 0 {
		t.Fatal("consumers never hit pushed updates")
	}
	sys.CheckAll()
}

// A delegated line evicted from the producer's L2 lives on in the pinned
// RAC entry; consumer reads are served from it and producer rewrites
// re-acquire it silently.
func TestDelegatedLineSurvivesL2Eviction(t *testing.T) {
	cfg := testConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
	cfg.L2Bytes = 2 * 128 // two-line L2 forces eviction
	cfg.L2Ways = 1
	cfg.L1Bytes = 64
	cfg.L1Ways = 1
	sys := newTestSystem(t, cfg)
	addr := msg.Addr(0x60000)
	pcRounds(t, sys, addr, 3, 0, []msg.NodeID{1}, 5)
	if sys.Hubs[0].prod.Peek(addr) == nil {
		t.Fatal("line not delegated")
	}
	// Producer touches conflicting lines, evicting the delegated one.
	access(t, sys, 0, addr+0x100000, true)
	access(t, sys, 0, addr+0x200000, true)
	if l := sys.Hubs[0].l2.Lookup(addr); l != nil {
		t.Fatal("delegated line still in the tiny L2; test geometry wrong")
	}
	rl := sys.Hubs[0].rc.Lookup(addr)
	if rl == nil || !rl.Pinned {
		t.Fatal("pinned RAC entry lost after L2 eviction")
	}
	// Consumer read served by the producer from the RAC master copy.
	access(t, sys, 1, addr, false)
	// Producer rewrite silently re-acquires through the delegated flow.
	access(t, sys, 0, addr, true)
	if v := sys.LatestVersion(addr); v != 6 {
		t.Fatalf("version = %d, want 6", v)
	}
	sys.CheckAll()
	if err := sys.QuiesceCheck(); err != nil {
		t.Fatal(err)
	}
}

// The em3d "reload flurry" under updates: after the producer's write, all
// fifteen consumers reload; with updates most reloads hit their RACs and
// NACK traffic drops relative to the baseline flurry.
func TestReloadFlurryWithUpdates(t *testing.T) {
	run := func(mech bool) *stats.Stats {
		cfg := testConfig()
		if mech {
			cfg = cfg.With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
		}
		sys := newTestSystem(t, cfg)
		addr := msg.Addr(0x70000)
		access(t, sys, 3, addr, false)
		// Establish the pattern (and the consumer set).
		for round := 0; round < 4; round++ {
			access(t, sys, 0, addr, true)
			done := 0
			for n := msg.NodeID(1); n < 16; n++ {
				if n == 3 {
					continue
				}
				sys.Access(n, addr, false, func() { done++ })
			}
			sys.Run()
			if done != 14 {
				t.Fatalf("flurry incomplete: %d", done)
			}
		}
		sys.CheckAll()
		return sys.Aggregate()
	}
	base := run(false)
	mech := run(true)
	if mech.Misses[stats.MissLocalRAC] == 0 {
		t.Fatal("updates never absorbed the flurry")
	}
	if mech.RemoteMisses() >= base.RemoteMisses() {
		t.Fatalf("flurry remote misses did not drop: %d >= %d",
			mech.RemoteMisses(), base.RemoteMisses())
	}
}

// Version correctness across an undelegation: a consumer that last read
// via an update must still observe newer versions after the line moves
// back home and a third node writes.
func TestVersionsAcrossUndelegation(t *testing.T) {
	cfg := testConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
	sys := newTestSystem(t, cfg)
	addr := msg.Addr(0x80000)
	pcRounds(t, sys, addr, 3, 0, []msg.NodeID{1, 2}, 6)
	access(t, sys, 9, addr, true) // forces undelegation
	access(t, sys, 1, addr, false)
	access(t, sys, 2, addr, false)
	access(t, sys, 0, addr, false) // the old producer reads the new data
	if v := sys.LatestVersion(addr); v != 7 {
		t.Fatalf("version = %d, want 7", v)
	}
	sys.CheckAll()
	if err := sys.QuiesceCheck(); err != nil {
		t.Fatal(err)
	}
}
