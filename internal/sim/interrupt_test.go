package sim

import (
	"errors"
	"sync/atomic"
	"testing"
)

// chain schedules a self-perpetuating event chain of n links on e.
func chain(e *Engine, n int) {
	var step func()
	left := n
	step = func() {
		if left--; left > 0 {
			e.After(1, step)
		}
	}
	e.After(1, step)
}

func TestEngineInterrupt(t *testing.T) {
	e := NewEngine()
	var flag atomic.Bool
	e.SetInterrupt(&flag)
	chain(e, 100000)
	// Trip the flag from inside the run so the stop point is exact: the
	// poll fires on the next multiple-of-1024 event boundary.
	e.Schedule(5000, func() { flag.Store(true) })
	at, err := e.RunGuarded(0)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("RunGuarded = (%d, %v), want ErrInterrupted", at, err)
	}
	if e.Pending() == 0 {
		t.Fatal("interrupted run drained the queue anyway")
	}
	// The run can resume (the flag is owned by the caller): clear it and
	// the same engine drains to completion.
	flag.Store(false)
	if _, err := e.RunGuarded(0); err != nil {
		t.Fatalf("resumed RunGuarded: %v", err)
	}
	if e.Pending() != 0 {
		t.Fatalf("resumed run left %d events pending", e.Pending())
	}
}

func TestEngineInterruptBeforeRun(t *testing.T) {
	e := NewEngine()
	var flag atomic.Bool
	flag.Store(true)
	e.SetInterrupt(&flag)
	chain(e, 4096)
	if _, err := e.RunGuarded(0); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("RunGuarded = %v, want ErrInterrupted", err)
	}
	if got := e.Steps(); got != 0 {
		t.Fatalf("pre-armed interrupt still executed %d events", got)
	}
}

func TestEngineInterruptNilKeepsFastPath(t *testing.T) {
	e := NewEngine()
	chain(e, 512)
	if _, err := e.RunGuarded(0); err != nil {
		t.Fatalf("RunGuarded with nil interrupt: %v", err)
	}
	if e.Pending() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestGroupInterrupt(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		g := NewGroup(2, 8, 0, parallel)
		var flag atomic.Bool
		g.SetInterrupt(&flag)
		for s := 0; s < 2; s++ {
			chain(g.Engine(s), 100000)
		}
		g.Engine(0).Schedule(500, func() { flag.Store(true) })
		at, err := g.RunGuarded(0)
		if !errors.Is(err, ErrInterrupted) {
			t.Fatalf("parallel=%v: RunGuarded = (%d, %v), want ErrInterrupted",
				parallel, at, err)
		}
		if _, ok := g.NextAt(); !ok {
			t.Fatalf("parallel=%v: interrupted group drained anyway", parallel)
		}
		flag.Store(false)
		if _, err := g.RunGuarded(0); err != nil {
			t.Fatalf("parallel=%v: resumed RunGuarded: %v", parallel, err)
		}
	}
}
