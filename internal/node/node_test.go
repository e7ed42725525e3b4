package node

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pccsim/internal/core"
	"pccsim/internal/cpu"
	"pccsim/internal/msg"
	"pccsim/internal/sim"
)

func cfg4() core.Config {
	cfg := core.DefaultConfig()
	cfg.Nodes = 4
	cfg.CheckInvariants = true
	return cfg
}

func TestRunSimpleProgram(t *testing.T) {
	m, err := New(cfg4())
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]cpu.Stream, 4)
	for i := range streams {
		ops := []cpu.Op{
			{Kind: cpu.Store, Addr: msg.Addr(0x1000 * (i + 1))},
			{Kind: cpu.Barrier, Bar: 0},
			{Kind: cpu.Load, Addr: msg.Addr(0x1000 * ((i+1)%4 + 1))},
		}
		streams[i] = &cpu.SliceStream{Ops: ops}
	}
	st, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	if st.ExecCycles == 0 {
		t.Fatal("zero makespan")
	}
	if st.Loads != 4 || st.Stores != 4 {
		t.Fatalf("loads=%d stores=%d, want 4/4", st.Loads, st.Stores)
	}
	if st.Barriers != 4 {
		t.Fatalf("barriers=%d, want 4", st.Barriers)
	}
}

func TestRunWrongStreamCount(t *testing.T) {
	m, err := New(cfg4())
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(make([]cpu.Stream, 2))
	if err == nil || !strings.Contains(err.Error(), "streams") {
		t.Fatalf("stream-count mismatch not rejected: %v", err)
	}
}

// genStream is a Stream that is not a *cpu.SliceStream.
type genStream struct{}

func (*genStream) Next() (cpu.Op, bool) { return cpu.ComputeOp(10), true }

// TestRunNeedsSliceStreams: every machine, single engine or sharded,
// rejects a stream it cannot pre-scan for page placement, naming its type.
func TestRunNeedsSliceStreams(t *testing.T) {
	for _, cfg := range []core.Config{cfg4(), wideConfig(4, 2, false)} {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		streams := make([]cpu.Stream, 4)
		for i := range streams {
			streams[i] = &cpu.SliceStream{Ops: []cpu.Op{cpu.ComputeOp(5)}}
		}
		streams[2] = &genStream{}
		if _, err := m.Run(streams); err == nil || !strings.Contains(err.Error(), "*node.genStream") {
			t.Fatalf("%d shards: run with a generator stream: err %v, want one naming *node.genStream", cfg.Shards, err)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	// One core waits at a barrier no other core reaches.
	m, err := New(cfg4())
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]cpu.Stream, 4)
	streams[0] = &cpu.SliceStream{Ops: []cpu.Op{{Kind: cpu.Barrier, Bar: 9}}}
	for i := 1; i < 4; i++ {
		streams[i] = &cpu.SliceStream{Ops: nil}
	}
	_, err = m.Run(streams)
	if err == nil || !strings.Contains(err.Error(), "did not finish") {
		t.Fatalf("deadlocked program not reported: %v", err)
	}
}

// pcStreams builds a small producer-consumer program for 4 nodes.
func pcStreams() []cpu.Stream {
	streams := make([]cpu.Stream, 4)
	for i := range streams {
		ops := []cpu.Op{
			{Kind: cpu.Store, Addr: msg.Addr(0x1000 * (i + 1))},
			{Kind: cpu.Barrier, Bar: 0},
			{Kind: cpu.Load, Addr: msg.Addr(0x1000 * ((i+1)%4 + 1))},
		}
		streams[i] = &cpu.SliceStream{Ops: ops}
	}
	return streams
}

func TestWatchdogAbortsRunaway(t *testing.T) {
	cfg := cfg4()
	cfg.WatchdogSteps = 10 // far below what any real program needs
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(pcStreams())
	if err == nil {
		t.Fatal("watchdog did not fire")
	}
	var runaway *sim.RunawayError
	if !errors.As(err, &runaway) {
		t.Fatalf("error %v does not wrap *sim.RunawayError", err)
	}
	if runaway.Pending == 0 {
		t.Fatal("runaway error lacks pending-event context")
	}
	if !strings.Contains(err.Error(), "cores unfinished") {
		t.Fatalf("error lacks core context: %v", err)
	}
}

func TestWatchdogUnderBudgetIdentical(t *testing.T) {
	// A generous budget must not perturb the simulation at all.
	unguarded, err := New(cfg4())
	if err != nil {
		t.Fatal(err)
	}
	st1, err := unguarded.Run(pcStreams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfg4()
	cfg.WatchdogSteps = 1 << 30
	guarded, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := guarded.Run(pcStreams())
	if err != nil {
		t.Fatal(err)
	}
	if st1.ExecCycles != st2.ExecCycles || st1.TotalMessages() != st2.TotalMessages() {
		t.Fatalf("guard changed results: %d/%d cycles, %d/%d messages",
			st1.ExecCycles, st2.ExecCycles, st1.TotalMessages(), st2.TotalMessages())
	}
}

func TestObserverThreadedToCore(t *testing.T) {
	var started, finished bool
	var steps uint64
	obs := core.Observer{
		Start: func(*core.System) { started = true },
		Done: func(_ *core.System, n uint64, _ time.Duration) {
			finished = true
			steps = n
		},
	}
	m, err := New(cfg4(), WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(pcStreams()); err != nil {
		t.Fatal(err)
	}
	if !started || !finished {
		t.Fatalf("observer hooks: started=%v finished=%v", started, finished)
	}
	if steps == 0 {
		t.Fatal("observer reported zero engine events")
	}
}

func TestBadConfigRejected(t *testing.T) {
	bad := core.DefaultConfig()
	bad.Nodes = 0
	if _, err := New(bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestMakespanIsMaxFinish(t *testing.T) {
	m, err := New(cfg4())
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]cpu.Stream, 4)
	streams[0] = &cpu.SliceStream{Ops: []cpu.Op{cpu.ComputeOp(50_000)}}
	for i := 1; i < 4; i++ {
		streams[i] = &cpu.SliceStream{Ops: []cpu.Op{cpu.ComputeOp(10)}}
	}
	st, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	if st.ExecCycles < 50_000 {
		t.Fatalf("makespan %d < slowest core's 50000", st.ExecCycles)
	}
}
