package core

import (
	"math/rand"
	"testing"

	"pccsim/internal/msg"
	"pccsim/internal/sim/simtest"
)

// TestWideFuzz sweeps many seeds of random traffic through a system with
// every paper mechanism enabled and every runtime invariant check on: the
// simulator-side analogue of the paper's exhaustive Murphi verification.
func TestWideFuzz(t *testing.T) {
	last := int64(160)
	if testing.Short() {
		last = 110
	}
	for seed := int64(100); seed < last; seed++ {
		cfg := testConfig().With(WithRAC(2), WithDelegation(8), WithSpeculativeUpdates(0))
		cfg.Nodes = 6
		cfg.L2Bytes = 4 * 128
		cfg.L2Ways = 2
		cfg.L1Bytes = 128
		cfg.L1Ways = 2
		cfg.L1LineBytes = 32
		sys := newTestSystem(t, cfg)
		rng := rand.New(rand.NewSource(seed))
		n := 0
		for step := 0; step < 2500; step++ {
			node := msg.NodeID(rng.Intn(cfg.Nodes))
			addr := msg.Addr(rng.Intn(48)) * 128
			write := rng.Intn(3) == 0
			sys.Access(node, addr, write, simtest.Func(func() { n++ }), 0)
			if rng.Intn(3) == 0 {
				drain(sys)
			}
		}
		drain(sys)
		if n != 2500 {
			t.Fatalf("seed %d: %d/2500 completed", seed, n)
		}
		sys.CheckAll()
		if err := sys.QuiesceCheck(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
