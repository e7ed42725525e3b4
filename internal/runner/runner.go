// Package runner is the concurrent experiment scheduler behind the
// harness: it executes independent (configuration, workload) simulation
// cells on a worker pool, memoizes each unique cell so cross-figure
// repeats (the Base configuration alone recurs in Figure 7, the Figure 8
// baseline, the ablation, ...) simulate exactly once per Runner, and
// assembles results deterministically in job-submission order regardless
// of completion order.
//
// Parallelism is strictly *across* simulations: every cell owns a private
// sim.Engine and stats.Stats, so each simulation stays bit-for-bit
// deterministic and the assembled results are byte-identical whether the
// pool has one worker or many.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pccsim/internal/core"
	"pccsim/internal/cpu"
	"pccsim/internal/node"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
	"pccsim/internal/workload"
)

// Job is one simulation cell: a concrete machine configuration running
// one workload build.
type Job struct {
	// Label identifies the cell in progress events and errors, e.g.
	// "fig7/em3d/32K RAC".
	Label string
	// Cfg is the fully applied machine configuration (after any
	// ConfigSpec mutation).
	Cfg core.Config
	// Workload generates the op streams.
	Workload *workload.Workload
	// Params sizes the workload build.
	Params workload.Params
	// Attach, when non-nil, receives the freshly built machine before it
	// runs — the place to hang an observability sink for live progress.
	// It is not part of the cell's fingerprint and fires only when this
	// job actually simulates (a duplicate served from the memo never
	// builds a machine), so it must not change simulation results;
	// attaching an obs sink satisfies that by construction.
	Attach func(*node.Machine)
}

// Event is one progress notification. Each cell that actually simulates
// emits a start event (Done=false) and a finish event (Done=true) carrying
// the engine event count and host wall time; a cell satisfied from the
// memo emits a single Done event with Cached=true.
type Event struct {
	Label       string
	Fingerprint string
	Done        bool
	Cached      bool
	Events      uint64 // engine events executed (0 for cached cells)
	Wall        time.Duration
	Err         error
}

// ProgressFunc receives Events. It may be called from multiple worker
// goroutines concurrently and must be safe for that.
type ProgressFunc func(Event)

// Fingerprint canonically identifies a simulation cell: any difference in
// any configuration field (including ones touched by a ConfigSpec.Mutate
// hook), in the workload name, or in the build parameters yields a
// distinct key. It relies on Config and Params being plain value structs
// (no pointers, funcs or maps), which Go's %#v renders canonically.
func Fingerprint(cfg core.Config, workloadName string, p workload.Params) string {
	return fmt.Sprintf("%s|%#v|%#v", workloadName, cfg, p)
}

// Runner schedules jobs over a worker pool with cross-call memoization.
// The zero value is not ready; use New. A Runner may be reused across many
// Run calls (the harness shares one per report so cells recur for free)
// and is safe for concurrent use.
type Runner struct {
	workers  int
	progress ProgressFunc
	cells    *cache
}

// New returns a Runner with the given worker-pool size (0 or negative
// means GOMAXPROCS) and optional progress hook (nil for silent runs).
func New(workers int, progress ProgressFunc) *Runner {
	return &Runner{
		workers:  workers,
		progress: progress,
		cells:    newCache(),
	}
}

// Workers resolves the effective pool size.
func (r *Runner) Workers() int {
	if r.workers > 0 {
		return r.workers
	}
	return runtime.GOMAXPROCS(0)
}

// Cells reports how many unique cells have been simulated (or are in
// flight) so far.
func (r *Runner) Cells() int { return r.cells.len() }

// CacheStats reports memo traffic since construction: hits counts claims
// satisfied by an existing cell (including in-flight ones the claimant
// waited on), misses counts cells this Runner had to simulate.
func (r *Runner) CacheStats() (hits, misses uint64) { return r.cells.stats() }

// Run executes every job and returns their statistics in submission
// order, independent of completion order. Duplicate cells — within this
// call or from any earlier Run on the same Runner — simulate once and
// share one *stats.Stats (treat results as immutable). If any job fails,
// Run still finishes the rest and then returns the error of the earliest
// failed job by submission order, wrapped with that job's label; the
// returned slice holds nil at failed positions.
func (r *Runner) Run(jobs []Job) ([]*stats.Stats, error) {
	return r.RunCtx(context.Background(), jobs)
}

// RunCtx is Run under a context. Cancelling ctx interrupts the cells
// currently simulating (cooperatively, via each machine's interrupt
// flag — see RunOneCtx) and fails jobs not yet dispatched with ctx.Err()
// instead of simulating them, so a large experiment batch stops within
// one cell's interrupt latency rather than running to completion. The
// earliest error by submission order — which after a cancel may be a
// ctx.Err() — is returned wrapped with that job's label.
func (r *Runner) RunCtx(ctx context.Context, jobs []Job) ([]*stats.Stats, error) {
	results := make([]*stats.Stats, len(jobs))
	errs := make([]error, len(jobs))

	workers := r.Workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				results[i], _, errs[i] = r.RunOneCtx(ctx, jobs[i])
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("runner: %s: %w", jobs[i].Label, err)
		}
	}
	return results, nil
}

// RunOneCtx executes a single job through the memo under a context.
// cached reports whether the result came from an existing cell rather
// than a simulation owned by this call. Cancelling ctx stops the call:
// a waiter detaches immediately with ctx.Err() (the owning simulation,
// which other claimants may still want, keeps running), while an owner
// interrupts its machine cooperatively and returns an error wrapping
// sim.ErrInterrupted. An interrupted cell is forgotten — it holds no
// result — so a later submission of the same fingerprint simulates
// fresh. Deterministic failures (bad config, deadlock) stay memoized
// like they always were.
func (r *Runner) RunOneCtx(ctx context.Context, job Job) (st *stats.Stats, cached bool, err error) {
	key := Fingerprint(job.Cfg, job.Workload.Name, job.Params)
	c, owned := r.cells.claim(key)
	if !owned {
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		r.notify(Event{Label: job.Label, Fingerprint: key, Done: true,
			Cached: true, Err: c.err})
		return c.st, true, c.err
	}
	c.st, c.steps, c.err = r.simulate(ctx, job, key)
	if c.err != nil && (errors.Is(c.err, sim.ErrInterrupted) || ctx.Err() != nil) {
		r.cells.forget(key, c)
	}
	close(c.done)
	return c.st, false, c.err
}

// Simulate runs the cell once on a fresh machine: node.New with opts,
// then Attach, then the workload build, then the run. Every path that
// turns a cell into statistics — the runner, the CLI, serve's trace
// re-run, MustRun — goes through here.
func (j Job) Simulate(opts ...node.Option) (*stats.Stats, error) {
	m, err := node.New(j.Cfg, opts...)
	if err != nil {
		return nil, err
	}
	if j.Attach != nil {
		j.Attach(m)
	}
	ops := j.Workload.Build(j.Params)
	streams := make([]cpu.Stream, len(ops))
	for i := range ops {
		streams[i] = &cpu.SliceStream{Ops: ops[i]}
	}
	return m.Run(streams)
}

// simulate runs one cell, threading the progress hook through node.New
// into the core.System event loop. A cancellable ctx gets a watcher
// goroutine that interrupts the machine when it fires; the interrupt is
// cooperative and never perturbs event order, so a run that finishes
// first is identical to an unwatched one.
func (r *Runner) simulate(ctx context.Context, job Job, key string) (*stats.Stats, uint64, error) {
	var steps uint64
	opts := []node.Option{node.WithObserver(core.Observer{
		Start: func(*core.System) {
			r.notify(Event{Label: job.Label, Fingerprint: key})
		},
		Done: func(_ *core.System, n uint64, wall time.Duration) {
			steps = n
			r.notify(Event{Label: job.Label, Fingerprint: key, Done: true,
				Events: n, Wall: wall})
		},
	})}
	if ctx.Done() != nil {
		stop := make(chan struct{})
		defer close(stop)
		opts = append(opts, func(m *node.Machine) {
			go func() {
				select {
				case <-ctx.Done():
					m.Interrupt()
				case <-stop:
				}
			}()
		})
	}
	st, err := job.Simulate(opts...)
	if err != nil {
		r.notify(Event{Label: job.Label, Fingerprint: key, Done: true, Err: err})
		return nil, steps, err
	}
	return st, steps, nil
}

func (r *Runner) notify(ev Event) {
	if r.progress != nil {
		r.progress(ev)
	}
}
