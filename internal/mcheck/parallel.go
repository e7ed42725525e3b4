package mcheck

import (
	"bytes"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures the parallel reachability engine.
type Options struct {
	// Workers is the exploration worker count; 0 means GOMAXPROCS.
	Workers int
	// MaxStates bounds the search as a safety net (0 = unbounded). Once
	// more states than this have been expanded every worker stops, each
	// after at most 1,024 further states, and the Result carries a
	// *StateBoundError: a truncated verification proves nothing.
	MaxStates int
	// NoCanon disables symmetry reduction so state counts are comparable
	// with a plain breadth-first search over concrete states (oracle
	// tests, throughput baselines). Litmus mode always runs without
	// reduction — scripts distinguish the nodes.
	NoCanon bool
}

// maxReported bounds how many violations/deadlocks a Result carries (the
// lexicographically smallest canonical ones win).
const maxReported = 8

// ExploreOpts runs a work-stealing parallel BFS over the model's state
// graph: per-worker frontier deques of canonical state encodings
// (decode-on-pop), batched probes into the sharded visited table, and an
// atomic in-flight counter for termination.
//
// Determinism: the reachable set modulo symmetry, and with it every
// verdict-bearing number (States, Transitions, Delegated, MaxQueue,
// DedupHits, violation and deadlock sets), is a property of the state
// graph, not of scheduling — any worker count reports identical values.
// The engine does not stop at the first few violations: violating states
// are not expanded, but the exploration runs to its fixpoint and then
// reports the lexicographically smallest canonical violations, so the
// chosen counterexample is stable across worker counts too. Only
// PeakFrontier is schedule-dependent, and, under Options.MaxStates, the
// counts of a search the bound stopped.
func ExploreOpts(cfg Config, opt Options) *Result {
	res, _ := exploreFull(cfg, opt)
	return res
}

// exploreFull is ExploreOpts plus, in litmus mode, the sorted canonical
// encodings of every terminal state (Litmus checks their observation
// vectors in deterministic order).
func exploreFull(cfg Config, opt Options) (*Result, [][]byte) {
	e := newEngine(cfg, opt)
	nw := len(e.workers)
	init := NewState(cfg)
	w0 := e.workers[0]
	enc := w0.canon.canonical(init)
	fresh, seen := []bool{false}, []bool{false}
	e.table.insertBatch([]uint64{fingerprint(enc)}, fresh, seen)
	e.pending.Store(1)
	w0.push(enc)

	var stopMon chan struct{}
	if Progress != nil {
		stopMon = make(chan struct{})
		go e.monitor(stopMon)
	}

	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *eworker) {
			defer wg.Done()
			e.run(w)
		}(w)
	}
	wg.Wait()
	if stopMon != nil {
		close(stopMon)
	}

	res := &Result{Workers: nw}
	var viols, dead []violationRec
	var terms [][]byte
	for _, w := range e.workers {
		res.States += w.states
		res.Transitions += w.transitions
		res.DedupHits += w.dedup
		res.Delegated += w.delegated
		if w.maxQueue > res.MaxQueue {
			res.MaxQueue = w.maxQueue
		}
		if w.peak > res.PeakFrontier {
			res.PeakFrontier = w.peak
		}
		viols = append(viols, w.violations...)
		dead = append(dead, w.deadlocks...)
		terms = append(terms, w.terminals...)
	}
	if e.exceeded.Load() {
		res.Err = &StateBoundError{Bound: opt.MaxStates, States: res.States}
	}
	res.Violations = e.report(viols)
	res.Deadlocks = e.report(dead)
	sort.Slice(terms, func(i, j int) bool { return bytes.Compare(terms[i], terms[j]) < 0 })
	return res, terms
}

// violationRec is a violation before decoding: the invariant name and the
// state's canonical encoding (which doubles as the deterministic tiebreak).
type violationRec struct {
	inv string
	enc []byte
}

// report sorts violation records by canonical encoding, keeps the smallest
// maxReported, and decodes them into Violations. The ordering makes
// counterexample selection independent of which worker found what first.
func (e *engine) report(recs []violationRec) []*Violation {
	if len(recs) == 0 {
		return nil
	}
	sort.Slice(recs, func(i, j int) bool { return bytes.Compare(recs[i].enc, recs[j].enc) < 0 })
	if len(recs) > maxReported {
		recs = recs[:maxReported]
	}
	out := make([]*Violation, len(recs))
	for i, r := range recs {
		out[i] = &Violation{Invariant: r.inv, State: DecodeState(e.cfg, r.enc)}
	}
	return out
}

// newEngine sets up an engine and its workers with an empty visited table.
func newEngine(cfg Config, opt Options) *engine {
	nw := opt.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	identity := opt.NoCanon || cfg.Scripts != nil
	e := &engine{
		cfg:     cfg,
		opt:     opt,
		table:   newVisitedTable(4 * nw),
		workers: make([]*eworker, nw),
	}
	for i := range e.workers {
		e.workers[i] = &eworker{
			id:    i,
			canon: newCanonicalizer(cfg.Nodes, cfg.lines(), identity),
		}
	}
	return e
}

type engine struct {
	cfg      Config
	opt      Options
	table    *visitedTable
	pending  atomic.Int64 // states inserted but not yet expanded
	states   atomic.Int64 // expanded, flushed in batches from worker locals
	exceeded atomic.Bool
	workers  []*eworker
}

// eworker is one exploration worker: a mutex-guarded frontier (owner
// pops newest from the tail, thieves take a batch from the head), a
// per-worker canonicalizer, decode state, successor generator and
// scratch, and local stat counters merged after the run.
type eworker struct {
	mu sync.Mutex
	q  frontier

	id        int
	canon     *canonicalizer
	cur       []byte   // the popped encoding
	loot      frontier // a stolen batch on its way to q
	st        State    // the popped state, decoded in place
	gen       gen      // successor states live until the next pop
	flat      []byte
	offs      []int
	fps       []uint64
	fresh     []bool
	seen      []bool
	unflushed int

	states      int
	transitions int
	dedup       int
	delegated   int
	maxQueue    int
	peak        int
	violations  []violationRec
	deadlocks   []violationRec
	terminals   [][]byte // litmus mode: terminal-state encodings
}

// frontier is a queue of encodings stored back to back in one buffer
// that is reused as entries leave: entry i starts at offs[i] and ends
// where the next one starts (the last at len(buf)).
type frontier struct {
	buf  []byte
	offs []int
}

func (f *frontier) len() int { return len(f.offs) }

// push appends a copy of enc as the newest entry.
func (f *frontier) push(enc []byte) {
	f.offs = append(f.offs, len(f.buf))
	f.buf = append(f.buf, enc...)
}

// pop removes the newest entry and appends it to dst.
func (f *frontier) pop(dst []byte) []byte {
	k := len(f.offs) - 1
	start := f.offs[k]
	dst = append(dst, f.buf[start:]...)
	f.buf, f.offs = f.buf[:start], f.offs[:k]
	return dst
}

// moveOldest moves the k oldest entries, in order, to the new end of to.
func (f *frontier) moveOldest(k int, to *frontier) {
	cut := len(f.buf)
	if k < len(f.offs) {
		cut = f.offs[k]
	}
	for _, o := range f.offs[:k] {
		to.offs = append(to.offs, len(to.buf)+o)
	}
	to.buf = append(to.buf, f.buf[:cut]...)
	f.buf = f.buf[:copy(f.buf, f.buf[cut:])]
	f.offs = f.offs[:copy(f.offs, f.offs[k:])]
	for i := range f.offs {
		f.offs[i] -= cut
	}
}

// push copies enc onto the worker's frontier.
func (w *eworker) push(enc []byte) {
	w.mu.Lock()
	w.q.push(enc)
	w.peak = max(w.peak, w.q.len())
	w.mu.Unlock()
}

// pop moves the newest frontier entry into w.cur and reports whether there
// was one.
func (w *eworker) pop() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.q.len() == 0 {
		return false
	}
	w.cur = w.q.pop(w.cur[:0])
	return true
}

// stealInto moves up to half of v's frontier (head end, oldest first, at
// most 256 entries) to the end of w's and reports whether it took any. The
// batch passes through w.loot, so neither worker's lock is held while the
// other's is taken.
func (w *eworker) stealInto(v *eworker) bool {
	v.mu.Lock()
	take := min((v.q.len()+1)/2, 256)
	v.q.moveOldest(take, &w.loot)
	v.mu.Unlock()
	if take == 0 {
		return false
	}
	w.mu.Lock()
	w.loot.moveOldest(take, &w.q)
	w.peak = max(w.peak, w.q.len())
	w.mu.Unlock()
	return true
}

// run pops, steals and expands until the frontier is empty everywhere or,
// under a state bound, until some worker has counted past it. The bound
// is checked before every pop, so a worker stops within one flush (1,024
// states) of the crossing.
func (e *engine) run(w *eworker) {
	defer func() {
		e.states.Add(int64(w.unflushed))
		w.unflushed = 0
	}()
	nw := len(e.workers)
	idleSpins := 0
	for {
		if e.opt.MaxStates > 0 && e.exceeded.Load() {
			return
		}
		ok := w.pop()
		// Steal from the next workers round-robin.
		for k := 1; k < nw && !ok; k++ {
			ok = w.stealInto(e.workers[(w.id+k)%nw]) && w.pop()
		}
		if !ok {
			if e.pending.Load() == 0 {
				return
			}
			idleSpins++
			if idleSpins > 64 {
				time.Sleep(20 * time.Microsecond)
			} else {
				runtime.Gosched()
			}
			continue
		}
		idleSpins = 0
		e.expand(w, w.cur)
	}
}

// expand checks and expands one popped state. In steady state it
// allocates nothing: the state decodes into w.st, its successors come
// from w.gen's pool, and only fresh children are copied out (onto the
// frontier) before the next pop reuses both. enc is not kept: the
// records that outlive the expansion copy it.
func (e *engine) expand(w *eworker, enc []byte) {
	st := &w.st
	decodeInto(e.cfg, enc, st)
	w.states++
	w.unflushed++
	if w.unflushed >= 1024 {
		total := e.states.Add(int64(w.unflushed))
		w.unflushed = 0
		if e.opt.MaxStates > 0 && int(total) > e.opt.MaxStates {
			e.exceeded.Store(true)
		}
	}

	if inv := CheckInvariants(e.cfg, st); inv != "" {
		w.violations = append(w.violations, violationRec{inv, bytes.Clone(enc)})
		e.pending.Add(-1)
		return
	}
	for _, q := range st.Ch {
		if len(q) > w.maxQueue {
			w.maxQueue = len(q)
		}
	}
	if delegatedAnywhere(st) {
		w.delegated++
	}

	w.gen.reset()
	w.gen.successors(e.cfg, st)
	succs := w.gen.out
	w.transitions += len(succs)
	if len(succs) == 0 {
		if e.cfg.Scripts != nil {
			w.terminals = append(w.terminals, bytes.Clone(enc))
		}
		if !quiescent(st) {
			w.deadlocks = append(w.deadlocks, violationRec{"deadlock-freedom", bytes.Clone(enc)})
		}
		e.pending.Add(-1)
		return
	}

	// Canonicalize every successor into one flat scratch buffer, then
	// probe the visited table in a single batched call.
	w.flat = w.flat[:0]
	w.offs = w.offs[:0]
	w.fps = w.fps[:0]
	for _, sc := range succs {
		start := len(w.flat)
		w.offs = append(w.offs, start)
		w.flat = w.canon.appendCanonical(w.flat, sc.State)
		w.fps = append(w.fps, fingerprint(w.flat[start:]))
	}
	w.offs = append(w.offs, len(w.flat))
	for len(w.fresh) < len(w.fps) {
		w.fresh = append(w.fresh, false)
		w.seen = append(w.seen, false)
	}
	e.table.insertBatch(w.fps, w.fresh, w.seen)

	for i := range w.fps {
		if !w.fresh[i] {
			w.dedup++
			continue
		}
		// Increment before push: pending only reaches zero when every
		// enqueued state has been fully expanded.
		e.pending.Add(1)
		w.push(w.flat[w.offs[i]:w.offs[i+1]])
	}
	e.pending.Add(-1)
}

// monitor feeds the package Progress hook while workers run.
func (e *engine) monitor(stop chan struct{}) {
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			Progress(int(e.states.Load()), int(e.pending.Load()), e.table.size())
		}
	}
}
