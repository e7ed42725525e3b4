package node_test

import (
	"errors"
	"fmt"
	"testing"

	"pccsim/internal/core"
	"pccsim/internal/cpu"
	"pccsim/internal/harness"
	"pccsim/internal/msg"
	"pccsim/internal/node"
	"pccsim/internal/protocol"
	"pccsim/internal/workload"
)

// TestAllWorkloadsAllProtocols is the cross-protocol invariant suite:
// every protocol runs every bundled workload with runtime
// coherence checking armed (stale-write and backwards-read panics in the
// version oracle), then the whole-machine SWMR/directory sweep and the
// end-state value check. The protocol name is in the subtest path, so a
// failure names its protocol.
func TestAllWorkloadsAllProtocols(t *testing.T) {
	const nodes = 8
	params := workload.Params{Nodes: nodes, Scale: 1, Iters: 2}
	for _, proto := range protocol.All() {
		for _, wl := range workload.All() {
			t.Run(fmt.Sprintf("%s/%s", proto.Name(), wl.Name), func(t *testing.T) {
				base := core.DefaultConfig()
				base.Nodes = nodes
				base.CheckInvariants = true
				m, err := node.New(harness.CompareConfig(base, proto))
				if err != nil {
					t.Fatalf("protocol %s: %v", proto.Name(), err)
				}
				ops := wl.Build(params)
				streams := make([]cpu.Stream, len(ops))
				for i := range ops {
					streams[i] = &cpu.SliceStream{Ops: ops[i]}
				}
				st, err := m.Run(streams)
				if err != nil {
					t.Fatalf("protocol %s on %s: %v", proto.Name(), wl.Name, err)
				}
				if st.ExecCycles == 0 {
					t.Fatalf("protocol %s on %s: zero makespan", proto.Name(), wl.Name)
				}
				m.Sys.CheckAll()
				if err := m.Sys.VerifyValues(); err != nil {
					t.Fatalf("protocol %s on %s: %v", proto.Name(), wl.Name, err)
				}
			})
		}
	}
}

// TestHybridPushesUpdates drives a stable producer-consumer pattern and
// checks the hybrid protocol actually exercises its update path: pushes
// go out, stable readers consume them as local hits, and the round
// bookkeeping drains (Machine.Run's QuiesceCheck).
func TestHybridPushesUpdates(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Nodes = 4
	cfg.Protocol = "hybrid"
	cfg.CheckInvariants = true
	m, err := node.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Node 0 writes a line, nodes 1..3 read it, repeatedly with
	// barriers: the detector marks it producer-consumer and every later
	// write becomes an update round.
	const line = msg.Addr(0x4000)
	const rounds = 12
	streams := make([]cpu.Stream, 4)
	for i := 0; i < 4; i++ {
		var ops []cpu.Op
		for r := 0; r < rounds; r++ {
			if i == 0 {
				ops = append(ops, cpu.Op{Kind: cpu.Store, Addr: line})
			} else {
				ops = append(ops, cpu.Op{Kind: cpu.Load, Addr: line})
			}
			ops = append(ops, cpu.BarrierOp(r))
		}
		streams[i] = &cpu.SliceStream{Ops: ops}
	}
	st, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	if st.UpdatesSent == 0 {
		t.Fatal("hybrid protocol sent no updates on a stable producer-consumer pattern")
	}
	if st.UpdatesUseful == 0 {
		t.Fatal("no pushed update was consumed by a read")
	}
	m.Sys.CheckAll()
	if err := m.Sys.VerifyValues(); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Sys.LatestVersion(line), uint64(rounds); got != want {
		t.Fatalf("line reached version %d, want %d", got, want)
	}
}

// TestProtocolCapabilityRejection pins the one provisioning rule: the
// delegation knobs (delegate cache, speculative updates, adaptive delay)
// belong to the delegation mechanism, so every protocol without it
// rejects each of them at construction with core.ErrBadConfig, and an
// unknown protocol name is rejected with protocol.ErrUnknown as well.
func TestProtocolCapabilityRejection(t *testing.T) {
	base := core.DefaultConfig()
	base.Nodes = 4
	knobs := []struct {
		name string
		opts []core.Option
	}{
		{"delegation", []core.Option{core.WithRAC(32), core.WithDelegation(32)}},
		{"updates", []core.Option{core.WithRAC(32), core.WithDelegation(32), core.WithSpeculativeUpdates(0)}},
		{"adaptive-delay", []core.Option{core.WithAdaptiveDelay()}},
	}
	for _, p := range protocol.All() {
		if p.Mechanism() == protocol.Delegation {
			continue
		}
		for _, k := range knobs {
			t.Run(p.Name()+"-"+k.name, func(t *testing.T) {
				cfg := base.With(append([]core.Option{core.WithProtocol(p.Name())}, k.opts...)...)
				if _, err := node.New(cfg); !errors.Is(err, core.ErrBadConfig) {
					t.Fatalf("%s under %s: err = %v, want core.ErrBadConfig", k.name, p.Name(), err)
				}
			})
		}
	}
	t.Run("unknown", func(t *testing.T) {
		_, err := node.New(base.With(core.WithProtocol("mosi")))
		if !errors.Is(err, core.ErrBadConfig) || !errors.Is(err, protocol.ErrUnknown) {
			t.Fatalf("unknown protocol: err = %v, want core.ErrBadConfig and protocol.ErrUnknown", err)
		}
	})
}
