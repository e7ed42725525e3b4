package core

import (
	"testing"

	"pccsim/internal/msg"
	"pccsim/internal/stats"
)

// Tests for the §5 future-work extensions: adaptive intervention delay and
// the two-writer detector.

// With a far-too-long fixed delay and consumers reading a fixed 2000
// cycles after each write, the intervention always loses the race and no
// update ever lands. The adaptive extension halves the line's delay every
// time a consumer read beats it, so updates start landing within a few
// rounds. (The driver chains rounds through simulated time rather than
// draining the event queue, which would let any timer "win".)
func TestAdaptiveDelayRecoversFromTooLong(t *testing.T) {
	run := func(adaptive bool) uint64 {
		cfg := testConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
		cfg.InterventionDelay = 200_000 // hopeless fixed choice
		cfg.AdaptiveDelay = adaptive
		sys := newTestSystem(t, cfg)
		addr := msg.Addr(0x8000)
		pcRounds(t, sys, addr, 3, 0, []msg.NodeID{1, 2}, 4) // detect + delegate
		preamble := sys.Aggregate().Misses[stats.MissLocalRAC]

		const rounds = 16
		finished := 0
		var round func(r int)
		round = func(r int) {
			if r == rounds {
				finished = rounds
				return
			}
			sys.Access(0, addr, true, func() {
				sys.Eng.After(2000, func() {
					pending := 2
					rdone := func() {
						pending--
						if pending == 0 {
							round(r + 1)
						}
					}
					sys.Access(1, addr, false, rdone)
					sys.Access(2, addr, false, rdone)
				})
			})
		}
		round(0)
		sys.Run()
		if finished != rounds {
			t.Fatal("round chain did not complete")
		}
		sys.CheckAll()
		return sys.Aggregate().Misses[stats.MissLocalRAC] - preamble
	}
	fixed := run(false)
	adaptive := run(true)
	if fixed != 0 {
		t.Fatalf("fixed 200k delay should never deliver updates in time, got %d RAC hits", fixed)
	}
	if adaptive == 0 {
		t.Fatal("adaptive delay never recovered from the bad initial value")
	}
}

// With a far-too-short delay, the intervention interrupts write bursts
// (two stores 80 simulated cycles apart) and every burst continuation pays
// an extra ownership transaction. The adaptive extension doubles the
// line's delay on immediate rewrites until bursts survive.
func TestAdaptiveDelayGrowsOnBurstInterruption(t *testing.T) {
	run := func(adaptive bool) *stats.Stats {
		cfg := testConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
		cfg.InterventionDelay = 5
		cfg.AdaptiveDelay = adaptive
		sys := newTestSystem(t, cfg)
		addr := msg.Addr(0x9000)
		pcRounds(t, sys, addr, 3, 0, []msg.NodeID{1, 2}, 4) // detect + delegate

		const rounds = 16
		finished := false
		var round func(r int)
		round = func(r int) {
			if r == rounds {
				finished = true
				return
			}
			sys.Access(0, addr, true, func() {
				// Burst continuation 80 cycles later: with delay 5
				// the downgrade already happened, forcing a fresh
				// ownership transaction.
				sys.Eng.After(80, func() {
					sys.Access(0, addr, true, func() {
						sys.Eng.After(2000, func() {
							pending := 2
							rdone := func() {
								pending--
								if pending == 0 {
									round(r + 1)
								}
							}
							sys.Access(1, addr, false, rdone)
							sys.Access(2, addr, false, rdone)
						})
					})
				})
			})
		}
		round(0)
		sys.Run()
		if !finished {
			t.Fatal("round chain did not complete")
		}
		sys.CheckAll()
		return sys.Aggregate()
	}
	fixed := run(false)
	adaptive := run(true)
	// Interrupted bursts cost extra L2-miss transactions; once the hint
	// outgrows the 80-cycle gap the second store becomes a silent hit.
	if adaptive.TotalMisses() >= fixed.TotalMisses() {
		t.Fatalf("adaptive delay did not reduce burst-interruption misses: fixed=%d adaptive=%d",
			fixed.TotalMisses(), adaptive.TotalMisses())
	}
}

// The two-writer detector delegates lines that alternate between a stable
// pair of producers; the classic detector never does.
func TestPairDetectorDelegatesAlternatingWriters(t *testing.T) {
	run := func(writers int) *stats.Stats {
		cfg := testConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
		cfg.DetectorWriters = writers
		sys := newTestSystem(t, cfg)
		addr := msg.Addr(0xa000)
		access(t, sys, 3, addr, false) // home = 3
		for round := 0; round < 10; round++ {
			producer := msg.NodeID(round % 2) // writers 0 and 1 alternate
			access(t, sys, producer, addr, true)
			access(t, sys, 5, addr, false) // stable consumer
		}
		sys.CheckAll()
		return sys.Aggregate()
	}
	classic := run(0)
	pair := run(2)
	if classic.Delegations != 0 {
		t.Fatalf("classic detector delegated an alternating-writer line %d times", classic.Delegations)
	}
	if pair.Delegations == 0 {
		t.Fatal("pair detector never delegated the alternating-writer line")
	}
	if pair.PCLinesMarked == 0 {
		t.Fatal("pair detector never marked the line")
	}
}

// Alternating writers force remote-write undelegations under the pair
// detector; the system must stay coherent throughout (every access checked
// by the runtime invariants).
func TestPairDetectorUndelegationChurnIsCoherent(t *testing.T) {
	cfg := testConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
	cfg.DetectorWriters = 2
	sys := newTestSystem(t, cfg)
	addr := msg.Addr(0xb000)
	access(t, sys, 3, addr, false)
	for round := 0; round < 20; round++ {
		access(t, sys, msg.NodeID(round%2), addr, true)
		access(t, sys, 5, addr, false)
		access(t, sys, 6, addr, false)
	}
	st := sys.Aggregate()
	if st.Undelegations[stats.UndelRemoteWrite] == 0 {
		t.Fatal("alternating writers never forced a remote-write undelegation")
	}
	sys.CheckAll()
	if err := sys.QuiesceCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestDetectorWritersValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DetectorWriters = 3
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("DetectorWriters=3 accepted")
	}
}

// Adaptive delay under random traffic must not break coherence.
func TestAdaptiveDelayStress(t *testing.T) {
	cfg := testConfig().With(WithRAC(4), WithDelegation(8), WithSpeculativeUpdates(0))
	cfg.Nodes = 6
	cfg.AdaptiveDelay = true
	cfg.InterventionDelay = 500
	sys := newTestSystem(t, cfg)
	issued, completed := 0, 0
	for step := 0; step < 3000; step++ {
		n := msg.NodeID(step * 7 % cfg.Nodes)
		addr := msg.Addr(step*13%40) * 128
		write := step%3 == 0
		issued++
		sys.Access(n, addr, write, func() { completed++ })
		if step%4 == 0 {
			sys.Run()
		}
	}
	sys.Run()
	if completed != issued {
		t.Fatalf("%d of %d accesses completed", completed, issued)
	}
	sys.CheckAll()
	if err := sys.QuiesceCheck(); err != nil {
		t.Fatal(err)
	}
}
