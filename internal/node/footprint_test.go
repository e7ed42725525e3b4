package node_test

import (
	"runtime"
	"testing"

	"pccsim/internal/core"
	"pccsim/internal/cpu"
	"pccsim/internal/harness"
	"pccsim/internal/node"
	"pccsim/internal/protocol"
	"pccsim/internal/workload"
)

// TestNewFootprint bounds the host memory node.New allocates for a
// machine with Table 1's per-node geometry (2 MB L2, 32 KB L1, 32 KB
// RAC, 8,192-entry directory cache): caches, RAC and directory cache
// allocate storage on first touch, so building a machine costs a small
// fraction of the simulated capacity. Dense storage allocated ~24 MB for
// 16 nodes and ~390 MB for the 256-node, 2-shard em3d machine. Seeding
// each hub's consumer-table replacement source at construction took the
// 256-node machine to 9.2 MB; seeded at its first use it takes 7.9 MB,
// and the bound is their midpoint.
func TestNewFootprint(t *testing.T) {
	adaptive, err := protocol.Lookup(protocol.Default)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		nodes, shards int
		maxMB         float64
	}{
		{16, 0, 2},
		{256, 2, 8.6},
	} {
		base := core.DefaultConfig()
		base.Nodes = tc.nodes
		cfg := harness.CompareConfig(base, adaptive)
		cfg.Shards = tc.shards
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := node.New(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(m)
		mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		t.Logf("%d nodes, %d shards: node.New allocated %.1f MB", tc.nodes, tc.shards, mb)
		if mb > tc.maxMB {
			t.Errorf("%d nodes: node.New allocated %.1f MB, want <= %.1f MB", tc.nodes, mb, tc.maxMB)
		}
	}
}

// TestWideFootprint bounds the host memory one 256-node em3d run
// allocates, machine and run together, with the program built outside
// the measured window. Cache arrays give a set storage at its first
// fill, so the bound follows the sets the run fills, not 16-set runs of
// address space: 16-set chunks allocated 48.6 MB here, per-set blocks
// 35.9 MB, and the bound is their midpoint.
func TestWideFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node run is long; run without -short")
	}
	adaptive, err := protocol.Lookup(protocol.Default)
	if err != nil {
		t.Fatal(err)
	}
	base := core.DefaultConfig()
	base.Nodes = 256
	cfg := harness.CompareConfig(base, adaptive)
	cfg.Shards = 2
	wl, err := workload.Lookup("em3d")
	if err != nil {
		t.Fatal(err)
	}
	ops := wl.Build(workload.Params{Nodes: cfg.Nodes, Iters: 1})
	streams := make([]cpu.Stream, len(ops))
	for i := range ops {
		streams[i] = &cpu.SliceStream{Ops: ops[i]}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := node.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(streams); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("node.New plus Run allocated %.1f MB", mb)
	if mb > 42 {
		t.Errorf("node.New plus Run allocated %.1f MB, want <= 42 MB", mb)
	}
}
