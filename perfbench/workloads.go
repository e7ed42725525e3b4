package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"pccsim/internal/core"
	"pccsim/internal/cpu"
	"pccsim/internal/harness"
	"pccsim/internal/mcheck"
	"pccsim/internal/node"
	"pccsim/internal/protocol"
	"pccsim/internal/runner"
	"pccsim/internal/stats"
	"pccsim/internal/workload"
)

type opKind int

const (
	machineOp opKind = iota // one workload on one fresh machine
	bakeoffOp               // every protocol × every application through one fresh runner
	mcheckOp                // one exhaustive model-checker exploration
)

// benchWorkload is one benchmark input. Its sizes are fields so the tests
// can run each workload small.
type benchWorkload struct {
	name    string
	kind    opKind
	workers int // worker goroutines one operation uses

	// Simulator workloads.
	app          string // generator name; the bake-off's traced-run probe cell
	nodes, scale int
	shards       int // engine shards (0 = one engine); the parallel scheduler runs them when workers > 1

	// Model checker.
	mcfg       mcheck.Config
	wantStates int // canonical states at the fixpoint
}

// watchdogSteps aborts a runaway simulation as an error instead of
// hanging the run; it is an order of magnitude above the largest
// workload's event count and never changes results.
const watchdogSteps = 100_000_000

func workloads() []*benchWorkload {
	return []*benchWorkload{
		{name: "adaptive-barnes", kind: machineOp, workers: 1, app: "barnes", nodes: 16, scale: 16},
		{name: "bakeoff", kind: bakeoffOp, workers: 1, app: "barnes", nodes: 16, scale: 1},
		{name: "wide-256", kind: machineOp, workers: 1, app: "em3d", nodes: 256, scale: 2, shards: 2},
		{name: "mcheck-deep", kind: mcheckOp, workers: 1, mcfg: mcheck.DeepConfig(), wantStates: 404_959},
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

func lookupWorkload(name string) (*benchWorkload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// env is what every operation of one run shares.
type env struct {
	seed int64
	// golden, when set, is the CSV the bake-off must reproduce byte for
	// byte.
	golden []byte
}

// newEnv reads the bake-off reference when it applies: at the default
// seed and size, where testdata/compare.golden.csv was recorded.
func newEnv(w *benchWorkload, seed int64, goldenPath string) (*env, error) {
	e := &env{seed: seed}
	if w.kind == bakeoffOp && seed == 0 && w.nodes == 16 && w.scale == 1 {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			return nil, fmt.Errorf("bake-off reference: %w", err)
		}
		e.golden = data
	}
	return e, nil
}

// opResult is one operation's measurements and output.
type opResult struct {
	setup, wall time.Duration // setup is time in Workload.Build plus node.New
	build       time.Duration
	nodeNew     time.Duration
	run         time.Duration // time in Machine.Run (summed over cells) or mcheck.ExploreOpts
	work        float64       // simulated loads+stores, or canonical states
	digest      string        // output identity, equal across ops of one seed
	rssMB       float64       // peak resident memory

	st       *stats.Stats // simulator: summed over the op's machines
	events   uint64
	builtOps int
	windows  uint64  // conservative windows of a sharded run
	speedup  float64 // bake-off: adaptive's geo-mean speedup vs mesi
	output   []byte  // bake-off: the -compare CSV
	cells    []cellTiming
	mres     *mcheck.Result
	err      error
}

// op runs one operation. A panic on the calling goroutine is reported as
// the operation's error.
func (w *benchWorkload) op(e *env, tr *tracer) (r opResult) {
	start := time.Now()
	id := tr.open(noSpan, "op", start)
	defer func() {
		if p := recover(); p != nil {
			r = opResult{err: fmt.Errorf("panic: %v", p)}
		}
		tr.close(id, time.Now())
	}()
	switch w.kind {
	case machineOp:
		r = runMachine(w.machineConfig(w.shards, w.workers > 1), w.app, w.params(e.seed), tr, id)
	case bakeoffOp:
		r = w.bakeoff(e, tr, id)
	case mcheckOp:
		r = w.explore(tr, id)
	}
	return r
}

func (w *benchWorkload) params(seed int64) workload.Params {
	return workload.Params{Nodes: w.nodes, Scale: w.scale, Seed: seed}
}

// baseConfig is Table 1's machine at the workload's node count, with the
// watchdog armed.
func (w *benchWorkload) baseConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Nodes = w.nodes
	cfg.WatchdogSteps = watchdogSteps
	return cfg
}

// machineConfig is the adaptive protocol with the paper's full mechanism
// stack (32 KB RAC, 32-entry delegate cache, speculative updates), sized
// to the workload's node count.
func (w *benchWorkload) machineConfig(shards int, parallel bool) core.Config {
	p, err := protocol.Lookup(protocol.Default)
	if err != nil {
		panic(err) // the default protocol is always registered
	}
	cfg := harness.CompareConfig(w.baseConfig(), p)
	if shards > 1 {
		cfg.Shards = shards
		cfg.ShardsParallel = parallel
	}
	return cfg
}

func sliceStreams(ops [][]cpu.Op) []cpu.Stream {
	streams := make([]cpu.Stream, len(ops))
	for i := range ops {
		streams[i] = &cpu.SliceStream{Ops: ops[i]}
	}
	return streams
}

func countOps(ops [][]cpu.Op) int {
	n := 0
	for _, o := range ops {
		n += len(o)
	}
	return n
}

// runMachine builds app's program and a fresh machine and runs one to
// completion on the other.
func runMachine(cfg core.Config, app string, p workload.Params, tr *tracer, parent spanID, opts ...node.Option) opResult {
	wl, err := workload.Lookup(app)
	if err != nil {
		return opResult{err: err}
	}
	t0 := time.Now()
	ops := wl.Build(p)
	t1 := time.Now()
	m, err := node.New(cfg, opts...)
	t2 := time.Now()
	if err != nil {
		return opResult{err: err}
	}
	st, err := m.Run(sliceStreams(ops))
	t3 := time.Now()
	tr.add(parent, "workload.build", t0, t1)
	tr.add(parent, "node.new", t1, t2)
	tr.add(parent, "machine.run", t2, t3)
	if err != nil {
		return opResult{err: fmt.Errorf("%s on %d nodes: %w", app, cfg.Nodes, err)}
	}
	r := opResult{
		build: t1.Sub(t0), nodeNew: t2.Sub(t1), run: t3.Sub(t2), wall: t3.Sub(t0),
		work: float64(st.Loads + st.Stores), digest: digestStats(st),
		st: st, events: m.Sys.Steps(), builtOps: countOps(ops),
	}
	r.setup = r.build + r.nodeNew
	if m.Sys.Sharded() {
		r.windows = m.Sys.Group().Windows()
	}
	return r
}

// digestStats identifies a run's complete simulated output. Stats is a
// plain struct of counters, which %#v renders canonically.
func digestStats(st *stats.Stats) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", *st)))
	return hex.EncodeToString(sum[:8])
}

// cellTiming is one bake-off cell as seen from the benchmark. The runner
// calls node.New, then the job's Attach hook, then Workload.Build, then
// Machine.Run, whose end it reports as a progress event.
type cellTiming struct {
	start, attached      time.Time // node.New runs between these
	buildStart, buildEnd time.Time
	end                  time.Time
	events               uint64
	ops                  int // workload ops built
}

func (c *cellTiming) wall() time.Duration { return c.end.Sub(c.start) }

// cellClock is the context the bake-off's runner runs under. It is never
// cancelled; its Err method is polled by each runner worker right before
// the worker claims its next cell, which is the one moment the runner
// exposes when a cell starts. Err records that moment per worker
// goroutine, so the Attach hook can time node.New.
type cellClock struct {
	context.Context
	mu    sync.Mutex
	start map[uint64]time.Time
}

func (c *cellClock) Err() error {
	c.mu.Lock()
	c.start[goid()] = time.Now()
	c.mu.Unlock()
	return nil
}

func (c *cellClock) startOf(g uint64, fallback time.Time) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.start[g]; ok {
		return t
	}
	return fallback
}

// goid returns the calling goroutine's id from its stack header
// ("goroutine 42 [running]: ...").
func goid() uint64 {
	var buf [32]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	if i := strings.IndexByte(s, ' '); i > 0 {
		id, _ := strconv.ParseUint(s[:i], 10, 64)
		return id
	}
	return 0
}

// bakeoff runs the 28 -compare cells (every application × every protocol,
// each provisioned by harness.CompareConfig) through one fresh runner with
// w.workers workers, and renders them as the -compare CSV.
func (w *benchWorkload) bakeoff(e *env, tr *tracer, parent spanID) opResult {
	base := w.baseConfig()
	protos := protocol.All()
	apps := workload.All()
	params := w.params(e.seed)

	start := time.Now()
	clock := &cellClock{Context: context.Background(), start: map[uint64]time.Time{}}
	cells := make([]cellTiming, 0, len(apps)*len(protos))
	index := map[string]int{}
	var jobs []runner.Job
	for _, app := range apps {
		for _, p := range protos {
			i := len(jobs)
			label := "compare/" + app.Name + "/" + p.Name()
			cells = append(cells, cellTiming{})
			index[label] = i
			build := app.Build
			timed := *app
			timed.Build = func(p workload.Params) [][]cpu.Op {
				t0 := time.Now()
				ops := build(p)
				cells[i].buildStart, cells[i].buildEnd = t0, time.Now()
				cells[i].ops = countOps(ops)
				return ops
			}
			jobs = append(jobs, runner.Job{
				Label: label, Cfg: harness.CompareConfig(base, p), Workload: &timed, Params: params,
				Attach: func(*node.Machine) {
					cells[i].attached = time.Now()
					cells[i].start = clock.startOf(goid(), start)
				},
			})
		}
	}
	// Each cell's fields are written only by the worker running it.
	r := runner.New(w.workers, func(ev runner.Event) {
		if i, ok := index[ev.Label]; ok && ev.Done && !ev.Cached {
			cells[i].end, cells[i].events = time.Now(), ev.Events
		}
	})
	res, err := r.RunCtx(clock, jobs)
	end := time.Now()
	if err != nil {
		return opResult{err: err}
	}

	out := opResult{wall: end.Sub(start), st: stats.New(), cells: cells}
	var cycles uint64
	for i := range cells {
		c := &cells[i]
		id := tr.add(parent, "runner.cell", c.start, c.end)
		tr.add(id, "node.new", c.start, c.attached)
		tr.add(id, "workload.build", c.buildStart, c.buildEnd)
		tr.add(id, "machine.run", c.buildEnd, c.end)
		out.nodeNew += c.attached.Sub(c.start)
		out.build += c.buildEnd.Sub(c.buildStart)
		out.run += c.end.Sub(c.buildEnd)
		out.events += c.events
		out.builtOps += c.ops
		out.st.Add(res[i])
		cycles += res[i].ExecCycles
	}
	// Stats.Add keeps the largest ExecCycles; the bake-off's simulated
	// time is the sum over its cells.
	out.st.ExecCycles = cycles
	out.setup = out.build + out.nodeNew
	out.work = float64(out.st.Loads + out.st.Stores)
	rows := compareRows(apps, protos, res)
	var csv bytes.Buffer
	if err := harness.WriteCompareCSV(&csv, rows); err != nil {
		return opResult{err: err}
	}
	sum := sha256.Sum256(csv.Bytes())
	out.digest = hex.EncodeToString(sum[:8])
	out.speedup = geoMeanSpeedup(rows, protocol.Default)
	out.output = csv.Bytes()
	if e.golden != nil && !bytes.Equal(out.output, e.golden) {
		out.err = errors.New("bake-off CSV differs from the reference CSV")
	}
	return out
}

// compareRows builds the -compare table rows the way harness.Compare does:
// one row per (application, protocol) in job order, speedup relative to
// the baseline protocol of the same application.
func compareRows(apps []*workload.Workload, protos []protocol.Protocol, res []*stats.Stats) []harness.CompareRow {
	var rows []harness.CompareRow
	for i, app := range apps {
		group := res[i*len(protos) : (i+1)*len(protos)]
		var baseline uint64
		for j, p := range protos {
			if p.Name() == harness.CompareBaseline {
				baseline = group[j].ExecCycles
			}
		}
		for j, p := range protos {
			st := group[j]
			speedup := 0.0
			if st.ExecCycles != 0 {
				speedup = float64(baseline) / float64(st.ExecCycles)
			}
			rows = append(rows, harness.CompareRow{
				App: app.Name, Protocol: p.Name(),
				Cycles: st.ExecCycles, Speedup: speedup,
				Messages: st.TotalMessages(), Bytes: st.TotalBytes(), AvgHops: st.AvgHops(),
				MissRAC: st.RACMisses(), MissLocalHome: st.LocalHomeMisses(),
				MissRemote2: st.Remote2HopMisses(), MissRemote3: st.Remote3HopMisses(),
				UpdateAcc: st.UpdateAccuracy(), Delegations: st.Delegations, NackCount: st.Nacks(),
			})
		}
	}
	return rows
}

// geoMeanSpeedup is proto's geometric-mean speedup over the applications.
func geoMeanSpeedup(rows []harness.CompareRow, proto string) float64 {
	logSum, n := 0.0, 0
	for _, r := range rows {
		if r.Protocol == proto && r.Speedup > 0 {
			logSum += math.Log(r.Speedup)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// The model checker's set-up takes microseconds, so one operation times
// setupBlocks blocks of setupReps set-ups each, after setupWarmup untimed
// ones, and reports the median block's mean.
const (
	setupWarmup = 4096 // enough to fault in the heap FreeOSMemory released
	setupBlocks = 16
	setupReps   = 1024
)

// explore runs the model checker to its fixpoint. Its set-up is building
// and canonicalising the initial state; the exploration itself allocates
// its visited table and frontiers inside mcheck.ExploreOpts.
func (w *benchWorkload) explore(tr *tracer, parent spanID) opResult {
	for i := 0; i < setupWarmup; i++ {
		mcheck.NewState(w.mcfg).CanonicalKey()
	}
	blocks := make([]time.Duration, setupBlocks)
	for b := range blocks {
		t0 := time.Now()
		for i := 0; i < setupReps; i++ {
			mcheck.NewState(w.mcfg).CanonicalKey()
		}
		blocks[b] = time.Since(t0) / setupReps
	}
	setup := medianDuration(blocks)
	t0 := time.Now()
	res := mcheck.ExploreOpts(w.mcfg, mcheck.Options{Workers: w.workers})
	t1 := time.Now()
	tr.add(parent, "mcheck.explore", t0, t1)
	r := opResult{setup: setup, run: t1.Sub(t0), wall: setup + t1.Sub(t0), work: float64(res.States),
		digest: res.String(), mres: res}
	switch {
	case !res.Ok():
		r.err = fmt.Errorf("model check failed: %s", res)
	case w.wantStates > 0 && res.States != w.wantStates:
		r.err = fmt.Errorf("model check reached %d canonical states, want %d", res.States, w.wantStates)
	}
	return r
}
