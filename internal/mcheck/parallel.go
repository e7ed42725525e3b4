package mcheck

import (
	"bytes"
	"fmt"
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
	// MaxStates bounds the search as a safety net (0 = unbounded);
	// exceeding it panics, since a truncated verification proves nothing.
	MaxStates int
	// NoCanon disables symmetry reduction so state counts are comparable
	// with the serial reference checker (oracle tests, throughput
	// baselines). Litmus mode always runs without reduction — scripts
	// distinguish the nodes.
	NoCanon bool
}

// Explore runs the parallel reachability engine at GOMAXPROCS workers with
// symmetry reduction on — the production entry point, same contract as the
// old serial Explore.
func Explore(cfg Config, maxStates int) *Result {
	return ExploreOpts(cfg, Options{MaxStates: maxStates})
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
// Unlike the serial checker, the engine does not stop at the first few
// violations: violating states are not expanded, but the exploration runs
// to its fixpoint and then reports the lexicographically smallest
// canonical violations, so the chosen counterexample is stable across
// worker counts too. Only PeakFrontier is schedule-dependent.
func ExploreOpts(cfg Config, opt Options) *Result {
	res, _ := exploreFull(cfg, opt)
	return res
}

// exploreFull is ExploreOpts plus, in litmus mode, the sorted canonical
// encodings of every terminal state (LitmusOpts checks their observation
// vectors in deterministic order).
func exploreFull(cfg Config, opt Options) (*Result, [][]byte) {
	e := newEngine(cfg, opt)
	nw := len(e.workers)
	init := NewState(cfg)
	w0 := e.workers[0]
	enc := append([]byte(nil), w0.canon.canonical(init)...)
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
		panic(fmt.Sprintf("mcheck: state bound %d exceeded (states=%d)", opt.MaxStates, res.States))
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

// eworker is one exploration worker: a mutex-guarded frontier deque (owner
// pops newest from the tail, thieves take a batch from the head), a
// per-worker canonicalizer, decode state, successor generator and
// scratch, and local stat counters merged after the run.
type eworker struct {
	mu sync.Mutex
	q  [][]byte

	id        int
	canon     *canonicalizer
	st        State // the popped state, decoded in place
	gen       gen   // successor states live until the next pop
	arena     []byte
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

func (w *eworker) push(enc []byte) {
	w.mu.Lock()
	w.q = append(w.q, enc)
	if len(w.q) > w.peak {
		w.peak = len(w.q)
	}
	w.mu.Unlock()
}

func (w *eworker) pop() []byte {
	w.mu.Lock()
	n := len(w.q)
	if n == 0 {
		w.mu.Unlock()
		return nil
	}
	enc := w.q[n-1]
	w.q[n-1] = nil
	w.q = w.q[:n-1]
	w.mu.Unlock()
	return enc
}

// stealInto moves up to half of v's frontier (head end, oldest first) into
// w and returns one encoding to expand, or nil.
func (w *eworker) stealInto(v *eworker) []byte {
	v.mu.Lock()
	n := len(v.q)
	if n == 0 {
		v.mu.Unlock()
		return nil
	}
	take := (n + 1) / 2
	if take > 256 {
		take = 256
	}
	batch := make([][]byte, take)
	copy(batch, v.q[:take])
	rest := copy(v.q, v.q[take:])
	for i := rest; i < n; i++ {
		v.q[i] = nil
	}
	v.q = v.q[:rest]
	v.mu.Unlock()

	enc := batch[0]
	if len(batch) > 1 {
		w.mu.Lock()
		w.q = append(w.q, batch[1:]...)
		if len(w.q) > w.peak {
			w.peak = len(w.q)
		}
		w.mu.Unlock()
	}
	return enc
}

// arenaCopy copies enc into the worker's chunked arena: frontier
// encodings are small and extremely numerous, so individual allocations
// would dominate; the arena amortizes them to one per 64 KiB.
func (w *eworker) arenaCopy(enc []byte) []byte {
	if len(w.arena) < len(enc) {
		sz := 1 << 16
		if sz < len(enc) {
			sz = len(enc)
		}
		w.arena = make([]byte, sz)
	}
	n := copy(w.arena, enc)
	out := w.arena[:n:n]
	w.arena = w.arena[n:]
	return out
}

func (e *engine) run(w *eworker) {
	nw := len(e.workers)
	idleSpins := 0
	for {
		enc := w.pop()
		if enc == nil {
			// Steal from the next workers round-robin.
			for k := 1; k < nw && enc == nil; k++ {
				enc = w.stealInto(e.workers[(w.id+k)%nw])
			}
		}
		if enc == nil {
			if e.pending.Load() == 0 || e.exceeded.Load() {
				e.states.Add(int64(w.unflushed))
				w.unflushed = 0
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
		e.expand(w, enc)
	}
}

// expand checks and expands one popped state. In steady state it
// allocates nothing: the state decodes into w.st, its successors come
// from w.gen's pool, and only fresh children are copied out (into the
// arena) before the next pop reuses both.
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
		w.violations = append(w.violations, violationRec{inv, enc})
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
			w.terminals = append(w.terminals, enc)
		}
		if !quiescent(st) {
			w.deadlocks = append(w.deadlocks, violationRec{"deadlock-freedom", enc})
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
		c := w.canon.canonical(sc.State)
		w.offs = append(w.offs, len(w.flat))
		w.flat = append(w.flat, c...)
		w.fps = append(w.fps, fingerprint(c))
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
		child := w.arenaCopy(w.flat[w.offs[i]:w.offs[i+1]])
		// Increment before push: pending only reaches zero when every
		// enqueued state has been fully expanded.
		e.pending.Add(1)
		w.push(child)
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
