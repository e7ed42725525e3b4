package pccsim_test

import (
	"errors"
	"strings"
	"testing"

	"pccsim"
)

func TestWorkloadsList(t *testing.T) {
	names := pccsim.Workloads()
	want := []string{"barnes", "ocean", "em3d", "lu", "cg", "mg", "appbt"}
	if len(names) != len(want) {
		t.Fatalf("Workloads() = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Workloads()[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestRunWorkloadBaseline(t *testing.T) {
	cfg := pccsim.DefaultConfig()
	cfg.Nodes = 8
	st, err := pccsim.RunWorkload(cfg, "ocean", pccsim.WorkloadParams{Nodes: 8, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ExecCycles == 0 || st.Loads == 0 || st.Stores == 0 {
		t.Fatal("empty run")
	}
}

func TestRunWorkloadUnknown(t *testing.T) {
	_, err := pccsim.RunWorkload(pccsim.DefaultConfig(), "quake3", pccsim.WorkloadParams{})
	if !errors.Is(err, pccsim.ErrUnknownWorkload) {
		t.Fatalf("unknown workload not rejected with ErrUnknownWorkload: %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "quake3") {
		t.Fatalf("error does not name the bad workload: %v", err)
	}
}

func TestBadConfigSentinel(t *testing.T) {
	// Delegation without a RAC is inconsistent; New must classify it.
	_, err := pccsim.New(pccsim.DefaultConfig(), pccsim.WithDelegation(32))
	if !errors.Is(err, pccsim.ErrBadConfig) {
		t.Fatalf("inconsistent config not rejected with ErrBadConfig: %v", err)
	}
}

func TestRunawaySentinel(t *testing.T) {
	cfg := pccsim.DefaultConfig()
	cfg.Nodes = 4
	cfg.WatchdogSteps = 10
	m, err := pccsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := pccsim.NewProgram(4)
	for n := 0; n < 4; n++ {
		prog.Store(n, 0x1000)
	}
	_, err = m.Run(prog)
	if !errors.Is(err, pccsim.ErrRunaway) {
		t.Fatalf("watchdog abort not classified as ErrRunaway: %v", err)
	}
	var runaway *pccsim.RunawayError
	if !errors.As(err, &runaway) || runaway.Pending == 0 {
		t.Fatalf("ErrRunaway without diagnostics: %v", err)
	}
}

func TestRunWorkloadNodeMismatch(t *testing.T) {
	cfg := pccsim.DefaultConfig() // 16 nodes
	_, err := pccsim.RunWorkload(cfg, "ocean", pccsim.WorkloadParams{Nodes: 4})
	if err == nil {
		t.Fatal("node-count mismatch not rejected")
	}
}

func TestMechanismsImprovePCWorkload(t *testing.T) {
	cfg := pccsim.DefaultConfig()
	cfg.Nodes = 8
	params := pccsim.WorkloadParams{Nodes: 8}
	base, err := pccsim.RunWorkload(cfg, "em3d", params)
	if err != nil {
		t.Fatal(err)
	}
	mech, err := pccsim.RunWorkload(cfg.With(pccsim.WithRAC(32), pccsim.WithDelegation(32),
		pccsim.WithSpeculativeUpdates(0)), "em3d", params)
	if err != nil {
		t.Fatal(err)
	}
	if mech.ExecCycles >= base.ExecCycles {
		t.Fatalf("mechanisms did not speed up em3d: %d >= %d", mech.ExecCycles, base.ExecCycles)
	}
	if mech.RemoteMisses() >= base.RemoteMisses() {
		t.Fatalf("mechanisms did not reduce remote misses: %d >= %d",
			mech.RemoteMisses(), base.RemoteMisses())
	}
	if mech.UpdatesSent == 0 {
		t.Fatal("no speculative updates sent")
	}
}

// TestDSIProtocolSelfInvalidates runs the configuration `pccsim
// -protocol dsi` builds: the protocol name alone switches on dynamic
// self-invalidation, so the run self-downgrades and differs from mesi.
func TestDSIProtocolSelfInvalidates(t *testing.T) {
	cfg := pccsim.DefaultConfig()
	cfg.Nodes = 8
	params := pccsim.WorkloadParams{Nodes: 8, Iters: 4}
	mesi, err := pccsim.RunWorkload(cfg.With(pccsim.WithProtocol("mesi")), "barnes", params)
	if err != nil {
		t.Fatal(err)
	}
	dsi, err := pccsim.RunWorkload(cfg.With(pccsim.WithProtocol("dsi")), "barnes", params)
	if err != nil {
		t.Fatal(err)
	}
	if dsi.SelfDowngrades == 0 {
		t.Fatal("dsi protocol made no self-downgrades")
	}
	if mesi.SelfDowngrades != 0 || dsi.ExecCycles == mesi.ExecCycles {
		t.Fatalf("dsi ran like mesi: %d vs %d cycles, %d mesi self-downgrades",
			dsi.ExecCycles, mesi.ExecCycles, mesi.SelfDowngrades)
	}
}

func TestProgramAPI(t *testing.T) {
	cfg := pccsim.DefaultConfig()
	cfg.Nodes = 4
	cfg.CheckInvariants = true
	m, err := pccsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := pccsim.NewProgram(4)
	if p.Nodes() != 4 {
		t.Fatalf("Nodes() = %d", p.Nodes())
	}
	p.Store(0, 0x1000)
	p.Barrier()
	p.Load(1, 0x1000)
	p.Load(2, 0x1000)
	p.Compute(3, 100)
	p.Barrier()
	if p.Len() != 4+8 { // 4 memory/compute ops + 2 barriers x 4 nodes
		t.Fatalf("Len() = %d", p.Len())
	}
	st, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Loads != 2 || st.Stores != 1 {
		t.Fatalf("loads=%d stores=%d", st.Loads, st.Stores)
	}
}

func TestProgramMachineMismatch(t *testing.T) {
	cfg := pccsim.DefaultConfig()
	cfg.Nodes = 4
	m, err := pccsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(pccsim.NewProgram(8)); err == nil {
		t.Fatal("program/machine node mismatch not rejected")
	}
}

func TestCustomProducerConsumer(t *testing.T) {
	// The paper's pattern via the public API: detection, delegation,
	// updates, local consumer hits.
	cfg := pccsim.DefaultConfig().With(pccsim.WithRAC(32), pccsim.WithDelegation(32),
		pccsim.WithSpeculativeUpdates(0))
	cfg.Nodes = 4
	cfg.CheckInvariants = true
	m, err := pccsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := pccsim.NewProgram(4)
	p.Store(3, 0x4000) // home = 3
	p.Barrier()
	for round := 0; round < 8; round++ {
		p.Store(0, 0x4000)
		p.Barrier()
		p.Load(1, 0x4000)
		p.Load(2, 0x4000)
		p.Barrier()
	}
	st, err := m.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Delegations == 0 {
		t.Fatal("pattern never delegated")
	}
	if st.UpdatesSent == 0 || st.RACMisses() == 0 {
		t.Fatalf("updates did not localize consumer reads: sent=%d racHits=%d",
			st.UpdatesSent, st.RACMisses())
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	bad := pccsim.DefaultConfig()
	bad.EnableUpdates = true // without RAC/delegation
	if _, err := pccsim.New(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}
