package node_test

import (
	"reflect"
	"testing"

	"pccsim/internal/core"
	"pccsim/internal/cpu"
	"pccsim/internal/harness"
	"pccsim/internal/node"
	"pccsim/internal/protocol"
	"pccsim/internal/stats"
	"pccsim/internal/workload"
)

// TestCheckedRunMatchesUnchecked: runtime checks only observe. An
// unchecked run keeps no version table and derives each store's version
// from the writer's copy, so its answer must equal the checked run's,
// which proves at every store that the copy was the latest. It covers
// every app on every protocol at the bake-off size, em3d on 64 nodes
// across two parallel shards and, without -short, em3d on 256 nodes
// across two deterministic shards.
func TestCheckedRunMatchesUnchecked(t *testing.T) {
	run := func(t *testing.T, wl *workload.Workload, cfg core.Config, p workload.Params, check bool) *stats.Stats {
		t.Helper()
		cfg.CheckInvariants = check
		m, err := node.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ops := wl.Build(p)
		streams := make([]cpu.Stream, len(ops))
		for i := range ops {
			streams[i] = &cpu.SliceStream{Ops: ops[i]}
		}
		st, err := m.Run(streams)
		if err != nil {
			t.Fatalf("%s check=%v: %v", wl.Name, check, err)
		}
		return st
	}
	agree := func(t *testing.T, wl *workload.Workload, cfg core.Config, p workload.Params) {
		t.Helper()
		checked := run(t, wl, cfg, p, true)
		unchecked := run(t, wl, cfg, p, false)
		if !reflect.DeepEqual(checked, unchecked) {
			t.Errorf("%s on %d nodes, protocol %s: stats differ with checks on and off\nchecked:   %+v\nunchecked: %+v",
				wl.Name, cfg.Nodes, cfg.Protocol, checked, unchecked)
		}
	}
	for _, wl := range workload.All() {
		for _, p := range protocol.All() {
			agree(t, wl, harness.CompareConfig(core.DefaultConfig(), p), workload.Params{Nodes: 16})
		}
	}
	adaptive, err := protocol.Lookup(protocol.Default)
	if err != nil {
		t.Fatal(err)
	}
	em3d, _ := workload.ByName("em3d")
	sharded := func(nodes int, parallel bool) core.Config {
		base := core.DefaultConfig()
		base.Nodes = nodes
		cfg := harness.CompareConfig(base, adaptive)
		cfg.Shards = 2
		cfg.ShardsParallel = parallel
		return cfg
	}
	agree(t, em3d, sharded(64, true), workload.Params{Nodes: 64, Scale: 2})
	if !testing.Short() {
		agree(t, em3d, sharded(256, false), workload.Params{Nodes: 256, Iters: 1})
	}
}
