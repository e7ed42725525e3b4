package runner

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pccsim/internal/node"
	"pccsim/internal/obs"
	"pccsim/internal/sim"
	"pccsim/internal/workload"
)

// slowJob is a cell big enough that a cancel issued at run start lands
// mid-simulation (a few hundred thousand engine events).
func slowJob(label string) Job {
	wl, _ := workload.ByName("em3d")
	cfg := baseCfg()
	return Job{Label: label, Cfg: cfg, Workload: wl,
		Params: workload.Params{Nodes: 8, Scale: 4, Iters: 8}}
}

func TestRunOneCtxCancelMidRun(t *testing.T) {
	r := New(1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	job := slowJob("cancel")
	started := make(chan struct{})
	job.Attach = func(*node.Machine) { close(started) }
	go func() {
		<-started
		cancel()
	}()
	_, cached, err := r.RunOneCtx(ctx, job)
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("RunOneCtx = (cached=%v, %v), want ErrInterrupted", cached, err)
	}
	// The interrupted cell must not be memoized: the same fingerprint
	// resubmitted with a live context simulates fresh and succeeds.
	st, cached, err := r.RunOneCtx(context.Background(), slowJob("retry"))
	if err != nil {
		t.Fatalf("resubmit after cancel: %v", err)
	}
	if cached {
		t.Fatal("resubmit was served from an interrupted cell")
	}
	if st == nil || st.ExecCycles == 0 {
		t.Fatalf("resubmit produced empty stats: %+v", st)
	}
	// And it must match an untouched runner bit-for-bit.
	want, _, err := New(1, nil).RunOneCtx(context.Background(), slowJob("ref"))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	var got, ref bytes.Buffer
	st.Dump(&got)
	want.Dump(&ref)
	if got.String() != ref.String() {
		t.Fatalf("post-cancel rerun diverged from reference:\n%s\nvs\n%s",
			got.String(), ref.String())
	}
}

func TestRunOneCtxWaiterDetaches(t *testing.T) {
	r := New(1, nil)
	job := slowJob("owner")
	release := make(chan struct{})
	ownerDone := make(chan struct{})
	ownJob := job
	ownJob.Attach = func(*node.Machine) {
		close(release) // owner has claimed the cell and is about to run
	}
	go func() {
		defer close(ownerDone)
		if _, _, err := r.RunOneCtx(context.Background(), ownJob); err != nil {
			t.Errorf("owner run: %v", err)
		}
	}()
	<-release
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.RunOneCtx(ctx, job); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	<-ownerDone
	// The owner's result survived the waiter's departure.
	st, cached, err := r.RunOneCtx(context.Background(), job)
	if err != nil || !cached || st == nil {
		t.Fatalf("post-run claim = (%v, cached=%v, %v), want cached hit", st, cached, err)
	}
}

func TestRunOneCtxMemoAndStats(t *testing.T) {
	r := New(1, nil)
	job := testJob("a", baseCfg())
	st1, cached, err := r.RunOneCtx(context.Background(), job)
	if err != nil || cached {
		t.Fatalf("first run = (cached=%v, %v)", cached, err)
	}
	st2, cached, err := r.RunOneCtx(context.Background(), job)
	if err != nil || !cached {
		t.Fatalf("second run = (cached=%v, %v), want cache hit", cached, err)
	}
	if st1 != st2 {
		t.Fatal("duplicate submissions returned distinct stats objects")
	}
	hits, misses := r.CacheStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("CacheStats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
}

// TestAttachObserves pins the Attach contract: the hook sees the live
// machine (here: counting obs events), fires only on the owning
// simulation, and changes nothing about the result.
func TestAttachObserves(t *testing.T) {
	plain, _, err := New(1, nil).RunOneCtx(context.Background(), testJob("plain", baseCfg()))
	if err != nil {
		t.Fatal(err)
	}
	r := New(1, nil)
	var events atomic.Uint64
	job := testJob("tapped", baseCfg())
	job.Attach = func(m *node.Machine) {
		sink := obs.NewSink(0)
		sink.Tap = func(obs.Event) { events.Add(1) }
		m.Sys.AttachObs(sink)
	}
	st, _, err := r.RunOneCtx(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if events.Load() == 0 {
		t.Fatal("attached sink saw no events")
	}
	var a, b bytes.Buffer
	plain.Dump(&a)
	st.Dump(&b)
	if a.String() != b.String() {
		t.Fatal("attaching an obs sink changed the stats")
	}
	// Duplicate submission: served from memo, Attach not invoked.
	before := events.Load()
	dup := job
	dup.Attach = func(*node.Machine) { t.Error("Attach fired on a cached cell") }
	if _, cached, err := r.RunOneCtx(context.Background(), dup); err != nil || !cached {
		t.Fatalf("dup = (cached=%v, %v)", cached, err)
	}
	if events.Load() != before {
		t.Fatal("cached cell emitted events")
	}
}

// TestRunCtxCancelMidBatch pins the batch-cancel contract: cancelling
// mid-batch interrupts the cell currently simulating and fails the jobs
// not yet dispatched with the context error, so a long experiment batch
// stops within one cell's interrupt latency.
func TestRunCtxCancelMidBatch(t *testing.T) {
	r := New(1, nil) // one worker => strictly sequential dispatch
	ctx, cancel := context.WithCancel(context.Background())
	first := slowJob("first")
	first.Attach = func(*node.Machine) { cancel() } // fires as cell 0 starts
	jobs := []Job{
		first,
		testJob("second", baseCfg()),
		testJob("third", baseCfg()),
	}
	res, err := r.RunCtx(ctx, jobs)
	if err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	if !errors.Is(err, sim.ErrInterrupted) && !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want interrupt or context.Canceled", err)
	}
	for i, st := range res {
		if st != nil {
			t.Fatalf("job %d produced stats after mid-batch cancel", i)
		}
	}
	// The runner survives the cancel: the same batch on a live context
	// simulates everything (the interrupted cell was forgotten, not
	// poisoned).
	res, err = r.RunCtx(context.Background(), []Job{
		slowJob("first"), testJob("second", baseCfg()), testJob("third", baseCfg()),
	})
	if err != nil {
		t.Fatalf("resubmitted batch: %v", err)
	}
	for i, st := range res {
		if st == nil || st.ExecCycles == 0 {
			t.Fatalf("resubmitted job %d has empty stats", i)
		}
	}
}

func TestRunOneCtxDeadlineNoFire(t *testing.T) {
	// A context that expires long after the run finishes must not
	// perturb anything — the watcher goroutine exits via the stop chan.
	r := New(1, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if _, _, err := r.RunOneCtx(ctx, testJob("fast", baseCfg())); err != nil {
		t.Fatal(err)
	}
}
