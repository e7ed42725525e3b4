package node_test

import (
	"runtime"
	"testing"

	"pccsim/internal/core"
	"pccsim/internal/harness"
	"pccsim/internal/node"
	"pccsim/internal/protocol"
)

// TestNewFootprint bounds the host memory node.New allocates for a
// machine with Table 1's per-node geometry (2 MB L2, 32 KB L1, 32 KB
// RAC, 8,192-entry directory cache): caches, RAC and directory cache
// allocate storage on first touch, so building a machine costs a small
// fraction of the simulated capacity. Dense storage allocated ~24 MB for
// 16 nodes and ~390 MB for the 256-node, 2-shard em3d machine.
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
		{256, 2, 16},
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
			t.Errorf("%d nodes: node.New allocated %.1f MB, want <= %.0f MB", tc.nodes, mb, tc.maxMB)
		}
	}
}
