package node

import (
	"math"
	"reflect"
	"testing"

	"pccsim/internal/core"
	"pccsim/internal/cpu"
	"pccsim/internal/msg"
	"pccsim/internal/sim/simtest"
	"pccsim/internal/stats"
	"pccsim/internal/workload"
)

// runMachine executes one workload on a fresh machine built from cfg and
// returns the aggregated stats plus the number of conservative windows
// the sharded scheduler dispatched (0 on a single engine). pinned runs
// the sharded scheduler on fixed windows, the reference the default
// window policy is checked against.
func runMachine(t *testing.T, wl *workload.Workload, cfg core.Config, pinned bool) (*stats.Stats, uint64) {
	t.Helper()
	st, m := runProgram(t, wl, cfg, workload.Params{Nodes: cfg.Nodes, Iters: 1}, pinned)
	var windows uint64
	if m.Sys.Sharded() {
		windows = m.Sys.Group().Windows()
	}
	return st, windows
}

// runProgram executes one workload with explicit parameters on a fresh
// machine built from cfg and returns the aggregated stats and the
// machine it ran on.
func runProgram(t *testing.T, wl *workload.Workload, cfg core.Config, p workload.Params, pinned bool) (*stats.Stats, *Machine) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("%s nodes=%d shards=%d: %v", wl.Name, cfg.Nodes, cfg.Shards, err)
	}
	if pinned && m.Sys.Sharded() {
		m.Sys.Group().PinWindows()
	}
	ops := wl.Build(p)
	streams := make([]cpu.Stream, len(ops))
	for i := range ops {
		streams[i] = &cpu.SliceStream{Ops: ops[i]}
	}
	st, err := m.Run(streams)
	if err != nil {
		t.Fatalf("%s nodes=%d shards=%d parallel=%v: %v", wl.Name, cfg.Nodes, cfg.Shards, cfg.ShardsParallel, err)
	}
	return st, m
}

// smallConfig is the paper's small configuration (32 KB RAC, 32-entry
// delegate cache, speculative updates) on 16 nodes with the given shard
// configuration, invariant-checked.
func smallConfig(shards int, parallel bool) core.Config {
	cfg := core.DefaultConfig().With(
		core.WithRAC(32), core.WithDelegation(32), core.WithSpeculativeUpdates(0))
	cfg.CheckInvariants = true
	cfg.WatchdogSteps = 50_000_000
	cfg.Shards = shards
	cfg.ShardsParallel = parallel
	return cfg
}

// runSharded executes one workload on a fresh machine with the given
// shard configuration and returns the aggregated stats.
func runSharded(t *testing.T, wl *workload.Workload, shards int, parallel bool) *stats.Stats {
	t.Helper()
	st, _ := runMachine(t, wl, smallConfig(shards, parallel), false)
	return st
}

// TestShardCountAgreement asserts that the shard count does not change
// a run's answer: every workload's default run on the small config, at
// 2, 4 and 8 shards, homes every page exactly where the single engine
// does and makes exactly its delegations and undelegations. Cycles stay
// within 0.25% and messages within 1% of the single engine's; the rest
// of the gap comes from window-quantised barrier releases, deferred
// cross-shard calls and same-cycle tie-breaks within each shard.
func TestShardCountAgreement(t *testing.T) {
	shardCounts := []int{2, 4, 8}
	if testing.Short() {
		shardCounts = []int{4}
	}
	const cycleTol, msgTol = 0.0025, 0.01
	within := func(got, want uint64, tol float64) bool {
		return math.Abs(float64(got)-float64(want)) <= tol*float64(want)
	}
	for _, wl := range workload.All() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			p := workload.Params{Nodes: 16}
			var pages []msg.Addr
			seen := make(map[msg.Addr]bool)
			for _, ops := range wl.Build(p) {
				for _, op := range ops {
					page := op.Addr &^ 4095
					if (op.Kind == cpu.Load || op.Kind == cpu.Store) && !seen[page] {
						seen[page] = true
						pages = append(pages, page)
					}
				}
			}
			homes := func(m *Machine) []msg.NodeID {
				h := make([]msg.NodeID, len(pages))
				for i, page := range pages {
					home, ok := m.Sys.Mem.HomeIfPlaced(page)
					if !ok {
						t.Fatalf("page %#x unplaced after the run", uint64(page))
					}
					h[i] = home
				}
				return h
			}
			ref, refM := runProgram(t, wl, smallConfig(0, false), p, false)
			refHomes := homes(refM)
			for _, shards := range shardCounts {
				st, m := runProgram(t, wl, smallConfig(shards, true), p, false)
				if !reflect.DeepEqual(homes(m), refHomes) {
					t.Errorf("%d shards: page homes differ from the single engine's", shards)
				}
				if st.Delegations != ref.Delegations || st.Undelegations != ref.Undelegations {
					t.Errorf("%d shards: delegations %d, undelegations %v; single engine %d, %v",
						shards, st.Delegations, st.Undelegations, ref.Delegations, ref.Undelegations)
				}
				if !within(st.ExecCycles, ref.ExecCycles, cycleTol) {
					t.Errorf("%d shards: %d cycles, single engine %d (bound %.2f%%)",
						shards, st.ExecCycles, ref.ExecCycles, 100*cycleTol)
				}
				if !within(st.TotalMessages(), ref.TotalMessages(), msgTol) {
					t.Errorf("%d shards: %d messages, single engine %d (bound %.0f%%)",
						shards, st.TotalMessages(), ref.TotalMessages(), 100*msgTol)
				}
			}
		})
	}
}

// TestShardEquivalenceAllWorkloads asserts the acceptance property of the
// sharded engine: for every workload and every shard count, the parallel
// scheduler's end-state Stats are identical to the deterministic serial
// scheduler's — same misses, same messages, same cycles, everything.
func TestShardEquivalenceAllWorkloads(t *testing.T) {
	shardCounts := []int{2, 4, 8}
	if testing.Short() {
		shardCounts = []int{4}
	}
	for _, wl := range workload.All() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			for _, shards := range shardCounts {
				det := runSharded(t, wl, shards, false)
				fast := runSharded(t, wl, shards, true)
				if !reflect.DeepEqual(det, fast) {
					t.Errorf("%s at %d shards: parallel stats diverge from deterministic\nserial:   %+v\nparallel: %+v",
						wl.Name, shards, det, fast)
				}
			}
		})
	}
}

// TestShardedSmoke runs one workload across the full shard-count range,
// including the single-shard degenerate group, and checks the run
// completes with coherent end state (Run already quiesce-checks).
func TestShardedSmoke(t *testing.T) {
	wl, _ := workload.ByName("em3d")
	for _, shards := range []int{2, 16} {
		runSharded(t, wl, shards, true)
	}
}

// wideConfig is the delegation-only machine the wide-vector and
// window-growth tests run on; withUpdates adds speculative updates.
func wideConfig(nodes, shards int, parallel bool) core.Config {
	cfg := core.DefaultConfig().With(core.WithRAC(32), core.WithDelegation(32))
	cfg.Nodes = nodes
	cfg.CheckInvariants = true
	cfg.WatchdogSteps = 200_000_000
	cfg.Shards = shards
	cfg.ShardsParallel = parallel
	return cfg
}

// TestShardEquivalence128Nodes scales the acceptance property past the
// old 64-node sharing-vector limit: at 128 nodes, for every workload,
// the parallel scheduler matches the deterministic serial one exactly.
func TestShardEquivalence128Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("128-node sweep is long; run without -short")
	}
	shardCounts := []int{4, 16}
	for _, wl := range workload.All() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			for _, shards := range shardCounts {
				det, _ := runMachine(t, wl, wideConfig(128, shards, false), false)
				fast, _ := runMachine(t, wl, wideConfig(128, shards, true), false)
				if !reflect.DeepEqual(det, fast) {
					t.Errorf("%s at 128 nodes, %d shards: parallel stats diverge from deterministic",
						wl.Name, shards)
				}
			}
		})
	}
}

// TestWideSmoke256 runs the full vector width: a 256-node machine (all
// four words of msg.Vector populated) under the parallel scheduler with
// grown windows, quiesce-checked by Run.
func TestWideSmoke256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node run is long; run without -short")
	}
	wl, _ := workload.ByName("em3d")
	runMachine(t, wl, wideConfig(256, 16, true), false)
}

// withUpdates adds speculative updates to a delegation machine: their
// update-delivered notifications cross shards outside the network.
func withUpdates(cfg core.Config) core.Config {
	return cfg.With(core.WithSpeculativeUpdates(0))
}

// TestAdaptiveWindowsEquivalence asserts the window-growth contract: the
// default scheduler, which grows windows while no cross-shard traffic is
// in flight, ends with stats identical to the pinned fixed-window
// reference (growth may only remove barriers, never reorder or retime
// events), in both serial and parallel modes, with and without
// speculative updates, and with a strictly lower window count on the
// barrier-heavy workload growth targets.
func TestAdaptiveWindowsEquivalence(t *testing.T) {
	for _, wl := range workload.All() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			for _, mech := range []struct {
				name string
				cfg  func(parallel bool) core.Config
			}{
				{"updates off", func(parallel bool) core.Config { return wideConfig(16, 4, parallel) }},
				{"updates on", func(parallel bool) core.Config { return withUpdates(wideConfig(16, 4, parallel)) }},
			} {
				fixed, fixedWin := runMachine(t, wl, mech.cfg(false), true)
				grown, grownWin := runMachine(t, wl, mech.cfg(false), false)
				if !reflect.DeepEqual(fixed, grown) {
					t.Errorf("%s, %s: grown windows drift from fixed windows\nfixed: %+v\ngrown: %+v",
						wl.Name, mech.name, fixed, grown)
				}
				if grownWin > fixedWin {
					t.Errorf("%s, %s: grown windows dispatched more windows (%d) than fixed (%d)",
						wl.Name, mech.name, grownWin, fixedWin)
				}
				par, parWin := runMachine(t, wl, mech.cfg(true), false)
				if !reflect.DeepEqual(grown, par) {
					t.Errorf("%s, %s: grown parallel stats diverge from grown serial", wl.Name, mech.name)
				}
				if parWin != grownWin {
					t.Errorf("%s, %s: grown window count differs: serial %d, parallel %d",
						wl.Name, mech.name, grownWin, parWin)
				}
				if wl.Name == "em3d" && grownWin >= fixedWin {
					t.Errorf("em3d, %s: grown windows did not reduce barriers: %d >= %d",
						mech.name, grownWin, fixedWin)
				}
			}
		})
	}
}

// TestWindowPolicy pins that a sharded machine's windows always grow,
// with no exception left in core.NewSystem: speculative updates report
// their cross-shard notifications like messages do, and a barrier
// latency below the lookahead ends a grown window where the fixed
// schedule's barrier falls. The stats equal the reference in every case.
func TestWindowPolicy(t *testing.T) {
	wl, _ := workload.ByName("em3d")
	for _, tc := range []struct {
		name string
		cfg  func() core.Config
	}{
		{"updates off", func() core.Config { return wideConfig(16, 4, false) }},
		{"updates on", func() core.Config { return withUpdates(wideConfig(16, 4, false)) }},
		{"updates on parallel", func() core.Config { return withUpdates(wideConfig(16, 4, true)) }},
		{"short barrier latency", func() core.Config {
			cfg := wideConfig(16, 4, false)
			cfg.BarrierLatency = 1
			return cfg
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, refWin := runMachine(t, wl, tc.cfg(), true)
			got, gotWin := runMachine(t, wl, tc.cfg(), false)
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("stats diverge from the fixed-window reference\nfixed:   %+v\ndefault: %+v", ref, got)
			}
			if gotWin >= refWin {
				t.Errorf("windows did not grow: %d >= fixed %d", gotWin, refWin)
			}
		})
	}
}

// TestGrownWindowsFullRuns compares grown and pinned windows on every
// workload's full default run on the base machine, where long phases
// leave one shard alone with work that other shards answer. A grown
// window must not carry such a shard past the fixed schedule's barrier,
// or the answers land in its past (ocean and appbt drift by 126 to 1,374
// cycles).
func TestGrownWindowsFullRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full default runs; run without -short")
	}
	for _, wl := range workload.All() {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			for _, shards := range []int{2, 4} {
				cfg := core.DefaultConfig()
				cfg.CheckInvariants = true
				cfg.Shards = shards
				p := workload.Params{Nodes: cfg.Nodes}
				fixed, _ := runProgram(t, wl, cfg, p, true)
				grown, _ := runProgram(t, wl, cfg, p, false)
				if !reflect.DeepEqual(fixed, grown) {
					t.Errorf("%d shards: grown windows drift from fixed windows\nfixed: %+v\ngrown: %+v",
						shards, fixed, grown)
				}
			}
		})
	}
}

// TestGrownWindowCutsAtBarrier pins the barrier hand-off: the core that
// completes a barrier runs on a shard that is otherwise alone with work
// (a chain of local events), so a grown window would carry that shard
// far past the release unless the completion ends it where the fixed
// schedule's barrier falls. Every core must resume and finish exactly
// as under pinned windows.
func TestGrownWindowCutsAtBarrier(t *testing.T) {
	run := func(pinned bool) *stats.Stats {
		cfg := core.DefaultConfig()
		cfg.Nodes = 4
		cfg.Shards = 2
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pinned {
			m.Sys.Group().PinWindows()
		}
		eng := m.Sys.EngFor(0)
		var tick func()
		tick = func() {
			if eng.Now() < 5000 {
				simtest.After(eng, 7, tick)
			}
		}
		simtest.At(eng, 0, tick)
		streams := make([]cpu.Stream, cfg.Nodes)
		for i := range streams {
			ops := []cpu.Op{{Kind: cpu.Barrier}, cpu.ComputeOp(10)}
			if i == 0 {
				ops = append([]cpu.Op{cpu.ComputeOp(1000)}, ops...)
			}
			streams[i] = &cpu.SliceStream{Ops: ops}
		}
		st, err := m.Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	fixed, grown := run(true), run(false)
	if !reflect.DeepEqual(fixed, grown) {
		t.Errorf("grown windows drift from fixed windows across a barrier\nfixed: %+v\ngrown: %+v", fixed, grown)
	}
}
