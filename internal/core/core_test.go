package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pccsim/internal/msg"
	"pccsim/internal/sim/simtest"
	"pccsim/internal/stats"
)

// testConfig returns a small, fully checked configuration. Mechanisms
// default off; tests enable them per scenario.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.CheckInvariants = true
	return cfg
}

func newTestSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// drain runs sys until its queue is empty under the configured watchdog;
// a runaway panics with the watchdog's diagnosis.
func drain(sys *System) {
	if _, err := sys.RunGuarded(); err != nil {
		panic(err)
	}
}

// access issues one operation and drains the system, failing the test if
// the operation never completes.
func access(t *testing.T, sys *System, n msg.NodeID, addr msg.Addr, write bool) {
	t.Helper()
	done := &simtest.Recorder{}
	sys.Access(n, addr, write, done, 7)
	drain(sys)
	if len(done.Ops) != 1 || done.Ops[0] != 7 {
		t.Fatalf("node %d %s of %#x completed with events %v, want one op 7", n, rw(write), uint64(addr), done.Ops)
	}
}

func rw(write bool) string {
	if write {
		return "store"
	}
	return "load"
}

// pcRounds drives the canonical producer-consumer pattern: producer writes,
// every consumer reads, repeated rounds times. The line is first touched by
// homeNode so the home is where we want it.
func pcRounds(t *testing.T, sys *System, addr msg.Addr, home, producer msg.NodeID,
	consumers []msg.NodeID, rounds int) {
	t.Helper()
	access(t, sys, home, addr, false) // first touch places the page
	for r := 0; r < rounds; r++ {
		access(t, sys, producer, addr, true)
		for _, c := range consumers {
			access(t, sys, c, addr, false)
		}
	}
}

func TestLocalHomeReadWrite(t *testing.T) {
	sys := newTestSystem(t, testConfig())
	access(t, sys, 0, 0x1000, false)
	access(t, sys, 0, 0x1000, true)
	st := sys.Aggregate()
	if st.RemoteMisses() != 0 {
		t.Fatalf("local accesses caused %d remote misses", st.RemoteMisses())
	}
	if st.Misses[stats.MissLocalHome] == 0 {
		t.Fatal("no local-home miss recorded")
	}
	if st.TotalMessages() != 0 {
		t.Fatalf("local accesses sent %d network messages", st.TotalMessages())
	}
}

func TestCacheHitsAfterFill(t *testing.T) {
	sys := newTestSystem(t, testConfig())
	access(t, sys, 0, 0x1000, false)
	before := sys.Aggregate().TotalMisses()
	access(t, sys, 0, 0x1000, false) // L1 hit
	access(t, sys, 0, 0x1010, false) // within L2 line, different L1 line
	st := sys.Aggregate()
	if st.TotalMisses() != before {
		t.Fatalf("hits generated misses: %d -> %d", before, st.TotalMisses())
	}
	if st.L1Hits == 0 {
		t.Fatal("no L1 hits recorded")
	}
}

func TestRemote2HopRead(t *testing.T) {
	sys := newTestSystem(t, testConfig())
	access(t, sys, 3, 0x2000, true)  // first touch: home = 3, now EXCL at 3
	access(t, sys, 3, 0x2000, false) // keep it warm
	access(t, sys, 7, 0x2000, false) // remote read; owner == home -> 2 hops
	st := sys.Aggregate()
	if st.Misses[stats.MissRemote2Hop] == 0 {
		t.Fatalf("expected a 2-hop miss, got %v", st.Misses)
	}
	if st.Misses[stats.MissRemote3Hop] != 0 {
		t.Fatalf("unexpected 3-hop miss: %v", st.Misses)
	}
}

func TestRemote3HopRead(t *testing.T) {
	sys := newTestSystem(t, testConfig())
	access(t, sys, 1, 0x3000, false) // home = 1
	access(t, sys, 2, 0x3000, true)  // node 2 becomes exclusive owner
	access(t, sys, 5, 0x3000, false) // read must intervene at 2 via home 1
	st := sys.Aggregate()
	if st.Misses[stats.MissRemote3Hop] == 0 {
		t.Fatalf("expected a 3-hop read, got %v", st.Misses)
	}
	if st.MsgCount[msg.Intervention] == 0 || st.MsgCount[msg.SharedWriteback] == 0 {
		t.Fatal("3-hop read did not use intervention + shared writeback")
	}
}

func TestRemote3HopWrite(t *testing.T) {
	sys := newTestSystem(t, testConfig())
	access(t, sys, 1, 0x4000, false) // home = 1
	access(t, sys, 2, 0x4000, true)  // owner = 2
	access(t, sys, 5, 0x4000, true)  // ownership transfer 2 -> 5
	st := sys.Aggregate()
	if st.MsgCount[msg.TransferReq] == 0 || st.MsgCount[msg.TransferAck] == 0 {
		t.Fatal("3-hop write did not use ownership transfer")
	}
	// Node 2 must no longer be able to read silently its stale copy.
	access(t, sys, 2, 0x4000, false)
	sys.CheckAll()
}

func TestWriteInvalidatesSharers(t *testing.T) {
	sys := newTestSystem(t, testConfig())
	access(t, sys, 0, 0x5000, false) // home = 0
	for _, n := range []msg.NodeID{1, 2, 3} {
		access(t, sys, n, 0x5000, false)
	}
	access(t, sys, 4, 0x5000, true)
	st := sys.Aggregate()
	if st.MsgCount[msg.Invalidate] < 3 {
		t.Fatalf("expected >=3 invalidations, got %d", st.MsgCount[msg.Invalidate])
	}
	if st.MsgCount[msg.InvAck] < 3 {
		t.Fatalf("expected >=3 inv acks, got %d", st.MsgCount[msg.InvAck])
	}
	sys.CheckAll()
}

func TestUpgradePath(t *testing.T) {
	sys := newTestSystem(t, testConfig())
	access(t, sys, 0, 0x6000, false) // home = 0
	access(t, sys, 2, 0x6000, false) // node 2 has a Shared copy
	access(t, sys, 2, 0x6000, true)  // upgrade in place
	st := sys.Aggregate()
	if st.MsgCount[msg.Upgrade] == 0 || st.MsgCount[msg.UpgradeAck] == 0 {
		t.Fatalf("upgrade path not used: upg=%d ack=%d",
			st.MsgCount[msg.Upgrade], st.MsgCount[msg.UpgradeAck])
	}
	sys.CheckAll()
}

func TestVersionsPropagate(t *testing.T) {
	sys := newTestSystem(t, testConfig())
	addr := msg.Addr(0x7000)
	access(t, sys, 0, addr, false)
	for i := 0; i < 5; i++ {
		access(t, sys, 1, addr, true)
		access(t, sys, 2, addr, false) // the monotonic observe check runs inside
	}
	if v := sys.LatestVersion(addr); v != 5 {
		t.Fatalf("latest version = %d, want 5", v)
	}
	sys.CheckAll()
}

func TestDetectionAndDelegation(t *testing.T) {
	cfg := testConfig().With(WithRAC(32), WithDelegation(32))
	sys := newTestSystem(t, cfg)
	pcRounds(t, sys, 0x8000, 3, 0, []msg.NodeID{1, 2}, 5)
	st := sys.Aggregate()
	if st.PCLinesMarked == 0 {
		t.Fatal("producer-consumer pattern never detected")
	}
	if st.Delegations == 0 {
		t.Fatal("stable pattern never delegated")
	}
	if st.MsgCount[msg.Delegate] == 0 {
		t.Fatal("no DELEGATE message sent")
	}
	// The producer table at node 0 must now hold the line.
	if sys.Hubs[0].prod.Peek(0x8000) == nil {
		t.Fatal("producer table has no entry after delegation")
	}
	sys.CheckAll()
}

func TestDelegationConverts3HopTo2Hop(t *testing.T) {
	// Producer 0, home 3: consumer reads are 3-hop before delegation
	// (home -> owner intervention), 2-hop after.
	cfg := testConfig().With(WithRAC(32), WithDelegation(32))
	sys := newTestSystem(t, cfg)
	pcRounds(t, sys, 0x9000, 3, 0, []msg.NodeID{1, 2}, 4)
	st := sys.Aggregate()
	before3 := st.Misses[stats.MissRemote3Hop]
	if before3 == 0 {
		t.Fatal("expected 3-hop misses before delegation")
	}
	// Post-delegation rounds: consumer reads go straight to producer 0.
	for r := 0; r < 4; r++ {
		access(t, sys, 0, 0x9000, true)
		access(t, sys, 1, 0x9000, false)
		access(t, sys, 2, 0x9000, false)
	}
	st2 := sys.Aggregate()
	if st2.Misses[stats.MissRemote3Hop] != before3 {
		t.Fatalf("3-hop misses grew after delegation: %d -> %d",
			before3, st2.Misses[stats.MissRemote3Hop])
	}
	if st2.MsgCount[msg.SharedResponse] == 0 {
		t.Fatal("no direct producer responses after delegation")
	}
	sys.CheckAll()
}

func TestSpeculativeUpdatesEliminateRemoteMisses(t *testing.T) {
	cfg := testConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
	sys := newTestSystem(t, cfg)
	pcRounds(t, sys, 0xa000, 3, 0, []msg.NodeID{1, 2}, 4) // detect + delegate
	// Steady state: producer writes, intervention fires, updates land.
	for r := 0; r < 3; r++ {
		access(t, sys, 0, 0xa000, true) // Run drains: intervention + updates
		access(t, sys, 1, 0xa000, false)
		access(t, sys, 2, 0xa000, false)
	}
	st := sys.Aggregate()
	if st.UpdatesSent == 0 {
		t.Fatal("no speculative updates sent")
	}
	if st.Misses[stats.MissLocalRAC] == 0 {
		t.Fatal("updates never turned consumer reads into local misses")
	}
	if st.UpdatesUseful == 0 {
		t.Fatal("no update was marked useful")
	}
	sys.CheckAll()
	if err := sys.QuiesceCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdatesPreserveDataValues(t *testing.T) {
	cfg := testConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
	sys := newTestSystem(t, cfg)
	addr := msg.Addr(0xb000)
	pcRounds(t, sys, addr, 3, 0, []msg.NodeID{1, 2}, 8)
	// global.observe inside every consumer read already asserts
	// monotonicity; additionally the final version must be 8 writes.
	if v := sys.LatestVersion(addr); v != 8 {
		t.Fatalf("latest version = %d, want 8", v)
	}
}

func TestUndelegationOnRemoteWrite(t *testing.T) {
	cfg := testConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
	sys := newTestSystem(t, cfg)
	pcRounds(t, sys, 0xc000, 3, 0, []msg.NodeID{1, 2}, 5)
	if sys.Hubs[0].prod.Peek(0xc000) == nil {
		t.Fatal("precondition: line not delegated")
	}
	access(t, sys, 9, 0xc000, true) // foreign write forces undelegation
	st := sys.Aggregate()
	if st.Undelegations[stats.UndelRemoteWrite] == 0 {
		t.Fatal("no remote-write undelegation recorded")
	}
	if sys.Hubs[0].prod.Peek(0xc000) != nil {
		t.Fatal("producer entry survived undelegation")
	}
	// Node 9 must have a working exclusive copy; node 1 reads the value.
	access(t, sys, 1, 0xc000, false)
	sys.CheckAll()
	if err := sys.QuiesceCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestUndelegationOnCapacity(t *testing.T) {
	cfg := testConfig().With(WithRAC(64), WithDelegation(2)) // 2-entry producer table
	sys := newTestSystem(t, cfg)
	// Delegate three distinct lines to node 0 (homes at 3, 4, 5).
	for i, home := range []msg.NodeID{3, 4, 5} {
		addr := msg.Addr(0x10000 * (i + 1))
		pcRounds(t, sys, addr, home, 0, []msg.NodeID{1, 2}, 5)
	}
	st := sys.Aggregate()
	if st.Delegations < 3 {
		t.Fatalf("expected 3 delegations, got %d", st.Delegations)
	}
	if st.Undelegations[stats.UndelCapacity] == 0 {
		t.Fatal("no capacity undelegation despite 2-entry table")
	}
	if got := sys.Hubs[0].prod.Len(); got > 2 {
		t.Fatalf("producer table holds %d entries, cap 2", got)
	}
	sys.CheckAll()
}

func TestWritebackOnEviction(t *testing.T) {
	cfg := testConfig()
	cfg.L2Bytes = 2 * 128 // two lines only: force evictions
	cfg.L2Ways = 1
	cfg.L1Bytes = 64
	cfg.L1Ways = 1
	sys := newTestSystem(t, cfg)
	access(t, sys, 1, 0x0, false) // home of everything = 1
	// Node 2 writes conflicting lines; evictions must write back home.
	access(t, sys, 2, 0x0000, true)
	access(t, sys, 2, 0x0100, true) // same set, evicts 0x0 (direct mapped)
	access(t, sys, 2, 0x0200, true)
	st := sys.Aggregate()
	if st.MsgCount[msg.Writeback] == 0 {
		t.Fatal("dirty evictions never wrote back")
	}
	// The written-back data must be visible at another node.
	access(t, sys, 3, 0x0000, false)
	sys.CheckAll()
}

func TestRACVictimCaching(t *testing.T) {
	cfg := testConfig()
	cfg.L2Bytes = 2 * 128
	cfg.L2Ways = 1
	cfg.L1Bytes = 64
	cfg.L1Ways = 1
	cfg.RACBytes = 32 * 1024
	sys := newTestSystem(t, cfg)
	access(t, sys, 1, 0x0, false) // home = 1
	access(t, sys, 2, 0x0000, false)
	access(t, sys, 2, 0x0100, false) // evicts 0x0 into the RAC
	base := sys.Aggregate().RemoteMisses()
	access(t, sys, 2, 0x0000, false) // RAC hit: no new remote miss
	st := sys.Aggregate()
	if st.RemoteMisses() != base {
		t.Fatalf("RAC victim hit still went remote: %d -> %d", base, st.RemoteMisses())
	}
	if st.Misses[stats.MissLocalRAC] == 0 {
		t.Fatal("no local RAC miss recorded")
	}
}

func TestNackRetryUnderContention(t *testing.T) {
	sys := newTestSystem(t, testConfig())
	access(t, sys, 0, 0xd000, false) // home = 0
	// Eight nodes write the same line simultaneously.
	done := &simtest.Recorder{}
	for n := msg.NodeID(1); n <= 8; n++ {
		sys.Access(n, 0xd000, true, done, 0)
	}
	drain(sys)
	if len(done.Ops) != 8 {
		t.Fatalf("%d of 8 concurrent writes completed", len(done.Ops))
	}
	if sys.Aggregate().Nacks() == 0 {
		t.Fatal("contention produced no NACKs")
	}
	sys.CheckAll()
	if err := sys.QuiesceCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestReloadFlurry(t *testing.T) {
	// After a producer write, many consumers reload the same line at
	// once — the em3d "reload flurry". All must complete.
	sys := newTestSystem(t, testConfig())
	access(t, sys, 0, 0xe000, false)
	for n := msg.NodeID(1); n < 16; n++ {
		access(t, sys, n, 0xe000, false)
	}
	access(t, sys, 0, 0xe000, true) // invalidates all 15
	done := 0
	for n := msg.NodeID(1); n < 16; n++ {
		sys.Access(n, 0xe000, false, simtest.Func(func() { done++ }), 0)
	}
	drain(sys)
	if done != 15 {
		t.Fatalf("%d of 15 flurry reads completed", done)
	}
	sys.CheckAll()
}

func TestConsumerTableHintsUsed(t *testing.T) {
	cfg := testConfig().With(WithRAC(32), WithDelegation(32))
	sys := newTestSystem(t, cfg)
	pcRounds(t, sys, 0xf000, 3, 0, []msg.NodeID{1, 2}, 5)
	// Consumer 1 now has a hint; its next read goes straight to node 0.
	hint, ok := sys.Hubs[1].cons.Lookup(0xf000)
	if !ok || hint != 0 {
		t.Fatalf("consumer table hint = %d,%v; want node 0", hint, ok)
	}
}

func TestStaleHintRecovery(t *testing.T) {
	cfg := testConfig().With(WithRAC(32), WithDelegation(32))
	sys := newTestSystem(t, cfg)
	pcRounds(t, sys, 0x11000, 3, 0, []msg.NodeID{1, 2}, 5)
	access(t, sys, 9, 0x11000, true) // undelegates
	// Consumer 1 still hints node 0; its read must recover via
	// NackNotHome and complete through the home.
	access(t, sys, 1, 0x11000, false)
	st := sys.Aggregate()
	if st.MsgCount[msg.NackNotHome] == 0 {
		t.Fatal("stale hint never produced NackNotHome")
	}
	if _, ok := sys.Hubs[1].cons.Lookup(0x11000); ok {
		t.Fatal("stale hint not dropped")
	}
	sys.CheckAll()
}

func TestDelegationOnlyAblation(t *testing.T) {
	// With updates disabled, delegated consumer reads are 2-hop (served
	// by the producer), never local.
	cfg := testConfig().With(WithRAC(32), WithDelegation(32))
	sys := newTestSystem(t, cfg)
	pcRounds(t, sys, 0x12000, 3, 0, []msg.NodeID{1, 2}, 8)
	st := sys.Aggregate()
	if st.UpdatesSent != 0 {
		t.Fatalf("delegation-only config sent %d updates", st.UpdatesSent)
	}
	if st.Misses[stats.MissLocalRAC] != 0 {
		t.Fatal("impossible local RAC hits without updates")
	}
}

func TestInterventionDelayInfinite(t *testing.T) {
	cfg := testConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
	cfg.InterventionDelay = NoIntervention
	sys := newTestSystem(t, cfg)
	pcRounds(t, sys, 0x13000, 3, 0, []msg.NodeID{1, 2}, 8)
	st := sys.Aggregate()
	if st.UpdatesSent != 0 {
		t.Fatalf("infinite delay still sent %d updates", st.UpdatesSent)
	}
	sys.CheckAll()
}

func TestTable3ConsumerDistribution(t *testing.T) {
	cfg := testConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
	sys := newTestSystem(t, cfg)
	pcRounds(t, sys, 0x14000, 3, 0, []msg.NodeID{1, 2, 4, 5}, 8)
	st := sys.Aggregate()
	var total uint64
	for _, c := range st.ConsumerDist {
		total += c
	}
	if total == 0 {
		t.Fatal("no consumer-count samples recorded")
	}
	if st.ConsumerDist[3] == 0 {
		t.Fatalf("expected 4-consumer samples, dist=%v", st.ConsumerDist)
	}
}

// TestRandomStress drives random reads/writes from all nodes over a small
// line set with all mechanisms enabled and every invariant check on. Any
// SWMR violation, stale write, backwards read, or stuck transaction fails.
func TestRandomStress(t *testing.T) {
	for _, mech := range []struct {
		name string
		opts []Option
	}{
		{"baseline", nil},
		{"rac-only", []Option{WithRAC(32)}},
		{"delegation", []Option{WithRAC(32), WithDelegation(32)}},
		{"updates", []Option{WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0)}},
		{"tiny-tables", []Option{WithRAC(4), WithDelegation(2), WithSpeculativeUpdates(0)}},
	} {
		t.Run(mech.name, func(t *testing.T) {
			cfg := testConfig().With(mech.opts...)
			cfg.Nodes = 8
			sys := newTestSystem(t, cfg)
			rng := rand.New(rand.NewSource(12345))
			lines := []msg.Addr{0x0, 0x80, 0x1000, 0x2000, 0x40000, 0x40080}
			issued, completed := 0, 0
			for step := 0; step < 4000; step++ {
				n := msg.NodeID(rng.Intn(cfg.Nodes))
				addr := lines[rng.Intn(len(lines))] + msg.Addr(rng.Intn(4)*32)
				write := rng.Intn(3) == 0
				issued++
				sys.Access(n, addr, write, simtest.Func(func() { completed++ }), 0)
				if rng.Intn(4) == 0 {
					drain(sys) // drain sometimes; otherwise overlap
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
		})
	}
}

// TestRandomStressManyLines exercises eviction paths across many seeds:
// small caches, many lines, random traffic, every invariant check enabled.
func TestRandomStressManyLines(t *testing.T) {
	seeds := []int64{1, 7, 42, 777, 4096, 31337}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := testConfig().With(WithRAC(2), WithDelegation(8), WithSpeculativeUpdates(0))
			cfg.Nodes = 4
			cfg.L2Bytes = 4 * 128
			cfg.L2Ways = 2
			cfg.L1Bytes = 128
			cfg.L1Ways = 2
			cfg.L1LineBytes = 32
			sys := newTestSystem(t, cfg)
			rng := rand.New(rand.NewSource(seed))
			issued, completed := 0, 0
			for step := 0; step < 3000; step++ {
				n := msg.NodeID(rng.Intn(cfg.Nodes))
				addr := msg.Addr(rng.Intn(64)) * 128
				write := rng.Intn(3) == 0
				issued++
				sys.Access(n, addr, write, simtest.Func(func() { completed++ }), 0)
				if rng.Intn(3) == 0 {
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
		})
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Nodes = 0
	if _, err := NewSystem(bad); err == nil {
		t.Fatal("Nodes=0 accepted")
	}
	bad = DefaultConfig()
	bad.DelegateEntries = 32 // delegation without RAC
	if _, err := NewSystem(bad); err == nil {
		t.Fatal("delegation without RAC accepted")
	}
	bad = DefaultConfig()
	bad.EnableUpdates = true
	if _, err := NewSystem(bad); err == nil {
		t.Fatal("updates without delegation accepted")
	}
	good := DefaultConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
	if _, err := NewSystem(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestConfigValidateGeometry checks that every cache, RAC, directory
// cache and consumer-table size the constructors cannot build is a
// typed ErrBadConfig from NewSystem, not a constructor panic.
func TestConfigValidateGeometry(t *testing.T) {
	base := DefaultConfig().With(WithRAC(32), WithDelegation(32))
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"l1-line-not-power-of-two", func(c *Config) { c.L1LineBytes, c.L1Bytes, c.L2LineBytes = 48, 48*2*256, 96 }},
		{"l1-sets-not-power-of-two", func(c *Config) { c.L1Bytes = 3 * 2 * 32 }},
		{"l2-not-divisible", func(c *Config) { c.L2Bytes = 1000 }},
		{"l2-sets-not-power-of-two", func(c *Config) { c.L2Bytes = 6 * 4 * 128 }},
		{"l2-no-ways", func(c *Config) { c.L2Ways = 0 }},
		{"rac-not-divisible", func(c *Config) { c.RACBytes = 3 * 128 }},
		{"rac-sets-not-power-of-two", func(c *Config) { c.RACBytes = 12 * 128 }},
		{"rac-negative", func(c *Config) { c.RACBytes = -128 }},
		{"dircache-empty", func(c *Config) { c.DirCacheEntries = 0 }},
		{"dircache-not-divisible", func(c *Config) { c.DirCacheEntries = 8190 }},
		{"dircache-sets-not-power-of-two", func(c *Config) { c.DirCacheEntries = 12 }},
		{"consumer-table-sets-not-power-of-two", func(c *Config) { c.ConsumerEntries = 12 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.edit(&cfg)
			if _, err := NewSystem(cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("err = %v, want ErrBadConfig", err)

			}
		})
	}
}

func TestAggregateExecCycles(t *testing.T) {
	sys := newTestSystem(t, testConfig())
	access(t, sys, 0, 0x1000, false)
	st := sys.Aggregate()
	if st.ExecCycles == 0 {
		t.Fatal("ExecCycles not set from engine time")
	}
}
