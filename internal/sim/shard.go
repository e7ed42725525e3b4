// Shard-group scheduling: conservative parallel discrete-event simulation
// over several Engines.
//
// A Group owns N shards, each a private Engine (its own timing wheel,
// sequence counter and message pool). Shards advance in lock-stepped
// conservative windows: at every barrier the coordinator computes
// T = min over shards of the next pending timestamp, then lets every
// shard execute its events in [T, T+lookahead) with no synchronization.
// The caller guarantees (by construction of the cross-shard channels,
// see internal/network's mailboxes) that an event created on shard A for
// shard B during a window carries a timestamp >= window end, and is only
// injected into B at the next barrier — so no shard ever receives work
// in its past, and a window's execution on shard B is independent of how
// far shard A has gotten within the same window.
//
// A window may also grow (see NewGroup): while one shard holds all the
// work of the coming fixed windows, it runs those windows back to back
// without a barrier between them, exactly as the fixed schedule would
// open them, and stops at the first barrier the fixed schedule would
// need. The event order, and therefore the simulation, is identical;
// only the number of barriers changes.
//
// Two execution modes share this window structure:
//
//   - serial (the deterministic reference): the coordinator runs the
//     shards round-robin on its own goroutine;
//   - parallel: one worker goroutine per shard executes the window.
//
// Both produce identical results for the same shard count: a shard's
// window execution depends only on its own queue (deterministic (at,
// seq) order), and barrier work runs single-threaded on the coordinator
// in registration order either way.
package sim

import (
	"sync"
	"sync/atomic"
)

// Group coordinates a set of shard Engines through conservative time
// windows. Methods on Group are coordinator-side: they must not be
// called while a parallel window is executing (Engine methods on a shard
// mid-window belong exclusively to that shard's worker).
type Group struct {
	engs     []*Engine
	look     Time
	parallel bool
	hooks    []func()

	// maxAllow caps how far a grown window reaches past its start (see
	// NewGroup). jobs holds the per-shard work of the window being
	// dispatched, reused across windows.
	maxAllow Time
	windows  uint64
	jobs     []windowJob

	// Parallel-run machinery, alive only inside RunGuarded.
	cmds    []chan windowJob
	results chan windowResult

	// intr, when armed via SetInterrupt, is polled at every window
	// barrier; see Engine.SetInterrupt for the contract.
	intr *atomic.Bool
}

// windowJob is one shard's part of a window: the fixed window ending at
// deadline and, when horizon is nonzero, further fixed windows opened at
// the shard's own next event, each ending before horizon (see runShard).
type windowJob struct {
	deadline Time
	horizon  Time
	budget   uint64
}

type windowResult struct {
	shard int
	steps uint64
	pan   any // non-nil if the window panicked on this shard
}

// NewGroup creates a group of shards fresh Engines synchronized with the
// given lookahead (clamped up to 1). parallel selects worker-goroutine
// execution; with one shard or parallel=false the group runs serially on
// the caller's goroutine.
//
// maxAllowance caps window growth: a window may reach at most that many
// cycles past its start. It is clamped up to the lookahead, which gives
// fixed windows. Above it, whenever the earliest shard's next events lie
// more than a lookahead before any other shard's, that shard runs the
// fixed windows the schedule would open for it alone back to back, with
// no barrier in between. It stops before a window another shard's work
// falls into, and after a window in which it handed work to another
// shard (see Engine.CutWindow), so every barrier the fixed schedule
// needs still happens, with every shard at the same point. Compute-heavy
// phases with no coherence traffic then cross in a few barriers instead
// of one barrier per lookahead. The caller must report every hand-off
// outside the mailbox protocol through CutWindow, or keep the cap at the
// lookahead (see core.NewSystem for the conditions).
func NewGroup(shards int, lookahead, maxAllowance Time, parallel bool) *Group {
	if shards < 1 {
		panic("sim: group needs at least one shard")
	}
	if lookahead < 1 {
		lookahead = 1
	}
	if maxAllowance < lookahead {
		maxAllowance = lookahead
	}
	g := &Group{
		engs:     make([]*Engine, shards),
		look:     lookahead,
		parallel: parallel && shards > 1,
		maxAllow: maxAllowance,
	}
	for i := range g.engs {
		g.engs[i] = NewEngine()
	}
	return g
}

// Shards returns the number of shards.
func (g *Group) Shards() int { return len(g.engs) }

// Engine returns shard i's private engine.
func (g *Group) Engine(i int) *Engine { return g.engs[i] }

// Lookahead returns the conservative window width.
func (g *Group) Lookahead() Time { return g.look }

// Parallel reports whether windows execute on worker goroutines.
func (g *Group) Parallel() bool { return g.parallel }

// OnBarrier registers fn to run at every window barrier, before the next
// window is chosen. Hooks run on the coordinator goroutine with no shard
// executing, in registration order; they are where cross-shard mailboxes
// drain and per-shard buffers merge. A hook may schedule new events into
// any shard's engine.
func (g *Group) OnBarrier(fn func()) { g.hooks = append(g.hooks, fn) }

// PinWindows drops the growth cap to the lookahead, so every window is
// the fixed conservative window. Results are unchanged; only the window
// count grows back. It is the fixed-window reference that tests compare
// grown windows against. Call before RunGuarded.
func (g *Group) PinWindows() { g.maxAllow = g.look }

// SetInterrupt arms the group with a cancellation flag shared with other
// goroutines: RunGuarded polls it at every window barrier and stops with
// ErrInterrupted when it is set. nil (the default) disarms the check. The
// flag never perturbs event order within or across windows.
func (g *Group) SetInterrupt(flag *atomic.Bool) { g.intr = flag }

// Windows reports how many conservative windows have been dispatched.
// Under window growth this is the direct measure of barrier overhead
// saved: fewer windows for the same event count means less coordinator
// synchronization per simulated cycle.
func (g *Group) Windows() uint64 { return g.windows }

// Now reports the simulation clock: the furthest shard's local time.
func (g *Group) Now() Time {
	var t Time
	for _, e := range g.engs {
		if e.Now() > t {
			t = e.Now()
		}
	}
	return t
}

// Steps reports events executed, summed over shards.
func (g *Group) Steps() uint64 {
	var n uint64
	for _, e := range g.engs {
		n += e.Steps()
	}
	return n
}

// Pending reports queued events, summed over shards.
func (g *Group) Pending() int {
	n := 0
	for _, e := range g.engs {
		n += e.Pending()
	}
	return n
}

// NextAt reports the earliest pending timestamp across all shards.
func (g *Group) NextAt() (Time, bool) {
	var best Time
	ok := false
	for _, e := range g.engs {
		if at, has := e.NextAt(); has && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// PendingCensus aggregates Engine.PendingCensus over all shards, most
// frequent first (ties by name), matching the single-engine ordering.
func (g *Group) PendingCensus() []MsgCount {
	merged := map[string]int{}
	for _, e := range g.engs {
		for _, c := range e.PendingCensus() {
			merged[c.Type] += c.Count
		}
	}
	return sortCensus(merged)
}

// RunGuarded executes windows until every queue drains or maxSteps total
// events have run (0 = unlimited). On a runaway it returns a
// *RunawayError aggregated across shards: summed pending counts, merged
// census, min next timestamp, max clock.
func (g *Group) RunGuarded(maxSteps uint64) (Time, error) {
	run := g.runWindowSerial
	if g.parallel {
		stop := g.startWorkers()
		defer stop()
		run = g.runWindowParallel
	}
	var executed uint64
	for {
		// Hooks first: they drain cross-shard mailboxes, so a group
		// whose engines look empty may still have work in flight.
		for _, fn := range g.hooks {
			fn()
		}
		next, ok := g.NextAt()
		if !ok {
			return g.Now(), nil
		}
		if g.intr != nil && g.intr.Load() {
			return g.Now(), ErrInterrupted
		}
		if maxSteps > 0 && executed >= maxSteps {
			return g.Now(), g.runawayError(executed, next)
		}
		var budget uint64
		if maxSteps > 0 {
			budget = maxSteps - executed
		}
		g.planWindow(next)
		g.windows++
		// In parallel mode each worker receives the full remaining
		// budget, so the group can overshoot maxSteps by up to
		// (shards-1)x within one window. The watchdog is a hang
		// detector, not an exact accountant; the overshoot is bounded
		// and the next barrier still trips the guard.
		executed += run(budget)
	}
}

// setDeadlines gives every shard the same fixed window.
func (g *Group) setDeadlines(deadline Time) {
	if g.jobs == nil {
		g.jobs = make([]windowJob, len(g.engs))
	}
	for i := range g.jobs {
		g.jobs[i] = windowJob{deadline: deadline}
	}
}

// planWindow fills g.jobs for the window opening at next (the earliest
// pending timestamp across shards).
//
// Every shard gets the fixed window [next, next+look-1]: no event
// another shard sends this window can arrive inside it.
//
// The window grows when the shard holding next is alone in it: if every
// other shard's earliest event (min2) lies past the fixed window, the
// fixed schedule's next barrier would open its next window at that
// shard's own next event, and so on, for as long as those windows end
// before min2. The shard can therefore run them itself (runShard), up
// to the growth cap.
func (g *Group) planWindow(next Time) {
	base := next + g.look - 1
	g.setDeadlines(base)
	const none = ^Time(0)
	min1, min2 := none, none
	arg1 := -1
	for i, e := range g.engs {
		at, ok := e.NextAt()
		if !ok {
			continue
		}
		if at < min1 {
			min1, min2, arg1 = at, min1, i
		} else if at < min2 {
			min2 = at
		}
	}
	if min2 > base {
		g.jobs[arg1].horizon = min(min2, next+g.maxAllow)
	}
}

// runShard executes shard engine e's part of a window: the fixed window
// ending at job.deadline, then — for the shard a window grows on — the
// fixed windows the schedule would open next, each starting at the
// shard's own next event. It stops after a window in which the shard
// handed work to another shard (Engine.CutWindow): the fixed schedule
// has a barrier there. It also stops before a window that would reach
// job.horizon — where another shard's work begins, or the growth cap —
// and once the budget is spent.
func (g *Group) runShard(e *Engine, job windowJob) uint64 {
	n := e.RunWindow(job.deadline, job.budget)
	for job.horizon > 0 && !e.cut && (job.budget == 0 || n < job.budget) {
		at, ok := e.NextAt()
		end := at + g.look - 1
		if !ok || end >= job.horizon {
			break
		}
		var b uint64
		if job.budget > 0 {
			b = job.budget - n
		}
		n += e.RunWindow(end, b)
	}
	e.cut = false
	return n
}

func (g *Group) runawayError(executed uint64, next Time) error {
	return &RunawayError{
		Steps:      executed,
		TotalSteps: g.Steps(),
		Now:        g.Now(),
		Pending:    g.Pending(),
		NextAt:     next,
		Census:     g.PendingCensus(),
	}
}

// runWindowSerial executes one window (per-shard jobs in g.jobs)
// round-robin on the calling goroutine, giving each shard at most the
// remaining budget.
func (g *Group) runWindowSerial(budget uint64) uint64 {
	var total uint64
	for i, e := range g.engs {
		if budget > 0 && total >= budget {
			break
		}
		job := g.jobs[i]
		if budget > 0 {
			job.budget = budget - total
		}
		total += g.runShard(e, job)
	}
	return total
}

// startWorkers launches one goroutine per shard, parked on a private
// command channel. The returned stop function closes the channels and
// joins the workers; RunGuarded defers it so workers never outlive a
// run (including a panicking one).
func (g *Group) startWorkers() (stop func()) {
	g.cmds = make([]chan windowJob, len(g.engs))
	g.results = make(chan windowResult, len(g.engs))
	var wg sync.WaitGroup
	for i := range g.engs {
		g.cmds[i] = make(chan windowJob, 1)
		wg.Add(1)
		go func(shard int, e *Engine, cmds <-chan windowJob) {
			defer wg.Done()
			for job := range cmds {
				steps, pan := g.runWindowCatch(e, job)
				g.results <- windowResult{shard: shard, steps: steps, pan: pan}
			}
		}(i, g.engs[i], g.cmds[i])
	}
	return func() {
		for _, c := range g.cmds {
			close(c)
		}
		wg.Wait()
		g.cmds, g.results = nil, nil
	}
}

// runWindowCatch runs one window on a worker, converting a panic into a
// value so the coordinator can re-raise it after every shard has parked
// (re-raising immediately would leave sibling workers running over
// state the panic handler may inspect).
func (g *Group) runWindowCatch(e *Engine, job windowJob) (steps uint64, pan any) {
	defer func() {
		if r := recover(); r != nil {
			pan = r
		}
	}()
	return g.runShard(e, job), nil
}

// runWindowParallel dispatches the window (per-shard jobs in g.jobs) to
// every shard that has work inside it and waits for all of them. If any
// shard panicked, the lowest-numbered shard's panic is re-raised — a
// deterministic choice, so a failure reproduces identically under the
// serial scheduler (which reaches the lowest shard's panic first by
// construction).
func (g *Group) runWindowParallel(budget uint64) uint64 {
	dispatched := 0
	for i, e := range g.engs {
		if at, ok := e.NextAt(); ok && at <= g.jobs[i].deadline {
			job := g.jobs[i]
			job.budget = budget
			g.cmds[i] <- job
			dispatched++
		}
	}
	var total uint64
	panShard, panVal := -1, any(nil)
	for k := 0; k < dispatched; k++ {
		r := <-g.results
		total += r.steps
		if r.pan != nil && (panShard < 0 || r.shard < panShard) {
			panShard, panVal = r.shard, r.pan
		}
	}
	if panShard >= 0 {
		panic(panVal)
	}
	return total
}
