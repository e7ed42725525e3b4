// Package harness regenerates every table and figure of the paper's
// evaluation section: the six machine configurations of Figure 7, the
// equal-silicon comparison of Figure 8, the intervention-delay sweep of
// Figure 9, the hop-latency sweep of Figure 10, the delegate-cache and RAC
// size sweeps of Figures 11 and 12, the consumer-count distribution of
// Table 3, and the delegation-only ablation discussed in §3.2.
//
// Experiments lists them all, once, in the experiment index's order;
// pccbench, the serve layer and RunAll all walk that list.
//
// Every experiment is declared as a set of runner.Jobs and executed by
// internal/runner's worker pool: independent cells simulate concurrently
// (each on a private engine, so results stay bit-for-bit deterministic),
// and cells that recur across figures — the Base configuration alone
// appears in Figure 7, the ablation and the extensions — simulate exactly
// once per Session. The related-work comparison is a view that joins the
// bake-off and the ablation rows.
package harness

import (
	"context"
	"fmt"
	"math"

	"pccsim/internal/core"
	"pccsim/internal/msg"
	"pccsim/internal/runner"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
	"pccsim/internal/workload"
)

// Options scales a harness run.
type Options struct {
	Nodes int // processors (16 in the paper)
	Scale int // workload problem-size multiplier
	Iters int // workload iteration override (0 = per-workload default)

	// Shards partitions each simulated machine into engine shards (0 =
	// the legacy single engine). Page placement and delegations do not
	// depend on it, but timings differ slightly (window-quantised barrier
	// releases, deferred cross-shard calls), so the count is part of the
	// report identity.
	Shards int `json:",omitempty"`
	// Deterministic forces the serial round-robin shard scheduler even
	// for Shards > 1. It never changes results — the parallel scheduler
	// is gated to produce identical stats — so it is not part of the
	// report identity.
	Deterministic bool `json:"-"`

	// Parallel is the scheduler's worker-pool size; 0 means GOMAXPROCS.
	// It affects only wall time, never results, and is therefore not
	// part of the report identity (excluded from JSON).
	Parallel int `json:"-"`

	// Progress optionally receives per-cell lifecycle events (start,
	// finish with engine event count and wall time, cache hits). It may
	// be called from multiple workers concurrently. Excluded from JSON.
	Progress runner.ProgressFunc `json:"-"`
}

func (o Options) params() workload.Params {
	return workload.Params{Nodes: o.Nodes, Scale: o.Scale, Iters: o.Iters}
}

// WithDefaults returns o with a zero Nodes or Scale replaced by its
// default (16 nodes, scale 1): the rule of serve's job bodies and of
// RunSpec.
func (o Options) WithDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 16
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	return o
}

// Validate reports whether every cell of a session with these options can
// run: Nodes in 1..msg.MaxNodes, Shards in 0..Nodes and no negative
// workload size.
func (o Options) Validate() error {
	if o.Nodes < 1 || o.Nodes > msg.MaxNodes {
		return fmt.Errorf("harness: invalid nodes %d: outside 1..%d", o.Nodes, msg.MaxNodes)
	}
	if o.Shards < 0 || o.Shards > o.Nodes {
		return fmt.Errorf("harness: invalid shards %d: outside 0..%d", o.Shards, o.Nodes)
	}
	return o.params().Validate()
}

// Session runs experiments through one shared scheduler, so identical
// cells are simulated once no matter how many figures request them. Each
// experiment is a Session method; RunAll runs them all on one session.
type Session struct {
	Opts Options
	r    *runner.Runner
	ctx  context.Context // nil = Background; set by WithContext
}

// NewSession creates a session with a worker pool sized by opts.Parallel.
func NewSession(opts Options) *Session {
	return &Session{Opts: opts, r: runner.New(opts.Parallel, opts.Progress)}
}

// NewSessionOn creates a session on an existing runner instead of a
// private pool. Sessions sharing a runner share its memo, so a
// long-running server can build one throwaway Session per request and
// still have every repeated cell — across requests and tenants —
// simulate exactly once. opts.Parallel and opts.Progress are ignored;
// the runner's own pool size and hook apply.
func NewSessionOn(r *runner.Runner, opts Options) *Session {
	return &Session{Opts: opts, r: r}
}

// WithContext returns a session whose experiment batches run under ctx:
// cancelling it interrupts the cells currently simulating and skips the
// rest of the batch (runner.RunCtx semantics). The receiver is unchanged,
// so one shared-runner session can hand differently-scoped views to
// concurrent callers.
func (s *Session) WithContext(ctx context.Context) *Session {
	c := *s
	c.ctx = ctx
	return &c
}

// run executes one experiment batch under the session's context.
func (s *Session) run(jobs []runner.Job) ([]*stats.Stats, error) {
	if s.ctx != nil {
		return s.r.RunCtx(s.ctx, jobs)
	}
	return s.r.Run(jobs)
}

// Cells reports how many unique simulation cells this session has run.
func (s *Session) Cells() int { return s.r.Cells() }

// ConfigSpec is one machine configuration under study.
type ConfigSpec struct {
	Label   string
	RAC     int  // RAC bytes (0 = none)
	Deledc  int  // delegate-cache entries (0 = none)
	Updates bool // speculative updates enabled
	Mutate  func(*core.Config)
}

// mech sizes the paper's mechanisms on a config. The harness sweeps raw
// byte and entry counts (including sub-kilobyte RACs), so it sets the
// fields directly instead of going through the KB-granular core options.
// Updates are enabled only when both a RAC and delegation are sized.
func mech(c core.Config, racBytes, delegateEntries int, updates bool) core.Config {
	c.RACBytes = racBytes
	c.DelegateEntries = delegateEntries
	c.EnableUpdates = updates && racBytes > 0 && delegateEntries > 0
	return c
}

// Apply produces the concrete configuration.
func (s ConfigSpec) Apply(base core.Config) core.Config {
	cfg := mech(base, s.RAC, s.Deledc, s.Updates)
	if s.Mutate != nil {
		s.Mutate(&cfg)
	}
	return cfg
}

// Fig7Configs are the six systems of Figure 7, in the paper's legend
// order: baseline, RAC only, and the four delegate-cache/RAC pairings
// (all four include directory delegation and selective updates).
func Fig7Configs() []ConfigSpec {
	return []ConfigSpec{
		{Label: "Base"},
		{Label: "32K RAC", RAC: 32 * 1024},
		{Label: "32-entry deledc & 32K RAC", RAC: 32 * 1024, Deledc: 32, Updates: true},
		{Label: "1K-entry deledc & 1M RAC", RAC: 1024 * 1024, Deledc: 1024, Updates: true},
		{Label: "1K-entry deledc & 32K RAC", RAC: 32 * 1024, Deledc: 1024, Updates: true},
		{Label: "32-entry deledc & 1M RAC", RAC: 1024 * 1024, Deledc: 32, Updates: true},
	}
}

// MustRun runs one workload on one configuration through the runner's
// cell body, for callers with static known-good configurations
// (benchmarks and tests). The experiment paths below never panic; they
// propagate errors through the runner instead.
func MustRun(cfg core.Config, wl *workload.Workload, p workload.Params) *stats.Stats {
	st, err := runner.Job{Cfg: cfg, Workload: wl, Params: p}.Simulate()
	if err != nil {
		panic(fmt.Sprintf("harness: %s on %d nodes: %v", wl.Name, cfg.Nodes, err))
	}
	return st
}

// job builds one runner job for these options. Shard options apply here,
// centrally, so every experiment cell of a sharded session and every
// RunSpec cell runs on the same engine partitioning.
func (o Options) job(label string, cfg core.Config, wl *workload.Workload) runner.Job {
	cfg.Shards = o.Shards
	cfg.ShardsParallel = o.Shards > 1 && !o.Deterministic
	return runner.Job{Label: label, Cfg: cfg, Workload: wl, Params: o.params()}
}

// Row is one (application, configuration) measurement normalized to that
// application's baseline, matching Figure 7's three stacked plots.
type Row struct {
	App    string
	Config string

	Cycles       uint64
	RemoteMisses uint64
	Messages     uint64
	Bytes        uint64

	Speedup   float64 // baseline cycles / this config's cycles
	MsgRatio  float64 // messages / baseline messages
	MissRatio float64 // remote misses / baseline remote misses
	UpdateAcc float64
	Delegs    uint64
	Undelegs  uint64
	NackCount uint64
}

// Fig7 runs every workload across the six Figure 7 configurations.
func (s *Session) Fig7() ([]Row, error) {
	base := core.DefaultConfig()
	base.Nodes = s.Opts.Nodes
	specs := Fig7Configs()
	apps := workload.All()

	var jobs []runner.Job
	for _, wl := range apps {
		for _, spec := range specs {
			jobs = append(jobs, s.Opts.job("fig7/"+wl.Name+"/"+spec.Label, spec.Apply(base), wl))
		}
	}
	res, err := s.run(jobs)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for i, wl := range apps {
		baseline := res[i*len(specs)] // the Base spec leads each group
		for j, spec := range specs {
			rows = append(rows, makeRow(wl.Name, spec.Label, res[i*len(specs)+j], baseline))
		}
	}
	return rows, nil
}

func makeRow(app, label string, st, baseline *stats.Stats) Row {
	r := Row{
		App:          app,
		Config:       label,
		Cycles:       st.ExecCycles,
		RemoteMisses: st.RemoteMisses(),
		Messages:     st.TotalMessages(),
		Bytes:        st.TotalBytes(),
		UpdateAcc:    st.UpdateAccuracy(),
		Delegs:       st.Delegations,
		Undelegs:     st.TotalUndelegations(),
		NackCount:    st.Nacks(),
	}
	if baseline != nil && baseline.ExecCycles > 0 {
		r.Speedup = float64(baseline.ExecCycles) / float64(st.ExecCycles)
	}
	if baseline != nil && baseline.TotalMessages() > 0 {
		r.MsgRatio = float64(st.TotalMessages()) / float64(baseline.TotalMessages())
	}
	if baseline != nil && baseline.RemoteMisses() > 0 {
		r.MissRatio = float64(st.RemoteMisses()) / float64(baseline.RemoteMisses())
	}
	return r
}

// GeoMeanSpeedup aggregates a config's speedups across apps, the way the
// paper reports its headline numbers ("geometric mean speedup ... 21%").
func GeoMeanSpeedup(rows []Row, config string) float64 {
	prod := 1.0
	n := 0
	for _, r := range rows {
		if r.Config == config && r.Speedup > 0 {
			prod *= r.Speedup
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// MeanRatio averages a ratio column for a config (arithmetic mean, as the
// paper uses for traffic and remote-miss reductions).
func MeanRatio(rows []Row, config string, f func(Row) float64) float64 {
	sum, n := 0.0, 0
	for _, r := range rows {
		if r.Config == config {
			sum += f(r)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Table3 measures the consumer-count distribution per application on the
// large configuration (the detector needs delegation on to track and
// classify producer-consumer lines).
func (s *Session) Table3() (map[string][5]float64, error) {
	base := core.DefaultConfig()
	base.Nodes = s.Opts.Nodes
	cfg := mech(base, 1024*1024, 1024, true)
	apps := workload.All()

	jobs := make([]runner.Job, len(apps))
	for i, wl := range apps {
		jobs[i] = s.Opts.job("table3/"+wl.Name, cfg, wl)
	}
	res, err := s.run(jobs)
	if err != nil {
		return nil, err
	}
	out := make(map[string][5]float64)
	for i, wl := range apps {
		out[wl.Name] = res[i].ConsumerDistPercent()
	}
	return out, nil
}

// Fig8Row is one bar of the equal-silicon-area comparison.
type Fig8Row struct {
	App     string
	Config  string
	Cycles  uint64
	Speedup float64
}

// Fig8 compares base (1 MB L2), base plus the small mechanisms (32-entry
// delegate cache + 32 KB RAC), and an equal-area 1.04 MB L2 with no
// mechanisms. The paper halves the Table 1 L2 for this experiment; we use
// a 64 KB / 66.5 KB pair scaled to our problem sizes (the comparison needs
// the working set to put pressure on L2 capacity).
func (s *Session) Fig8() ([]Fig8Row, error) {
	mk := func() core.Config {
		cfg := core.DefaultConfig()
		cfg.Nodes = s.Opts.Nodes
		cfg.L2Bytes = 64 * 1024
		return cfg
	}
	big := mk()
	// Equal silicon: delegate cache (320 B) + RAC (32 KB) + dir
	// cache detector bits (~8 KB) ~= 40 KB of SRAM (§3.3.1).
	// Cache geometry needs power-of-two sets; bump ways instead.
	big.L2Bytes = 104 * 1024 // 13 ways' worth at 8K per way
	big.L2Ways = 13

	apps := workload.All()
	var jobs []runner.Job
	for _, wl := range apps {
		jobs = append(jobs,
			s.Opts.job("fig8/"+wl.Name+"/base", mk(), wl),
			s.Opts.job("fig8/"+wl.Name+"/smarter", mech(mk(), 32*1024, 32, true), wl),
			s.Opts.job("fig8/"+wl.Name+"/larger", big, wl))
	}
	res, err := s.run(jobs)
	if err != nil {
		return nil, err
	}
	var rows []Fig8Row
	for i, wl := range apps {
		baseStats, st, st2 := res[i*3], res[i*3+1], res[i*3+2]
		rows = append(rows,
			Fig8Row{wl.Name, "Base (64K L2)", baseStats.ExecCycles, 1},
			Fig8Row{wl.Name, "Smarter (64K L2 + deledc + RAC)",
				st.ExecCycles, ratio(baseStats.ExecCycles, st.ExecCycles)},
			Fig8Row{wl.Name, "Larger (104K L2)",
				st2.ExecCycles, ratio(baseStats.ExecCycles, st2.ExecCycles)})
	}
	return rows, nil
}

func ratio(base, v uint64) float64 {
	if v == 0 {
		return 0
	}
	return float64(base) / float64(v)
}

// Fig9Row is one point of the intervention-delay sensitivity sweep.
type Fig9Row struct {
	App        string
	Delay      string
	Cycles     uint64
	Normalized float64 // vs the 5-cycle delay, as in Figure 9
}

// Fig9Delays are the swept intervention delays; ^0 encodes "infinite".
func Fig9Delays() []sim.Time {
	return []sim.Time{5, 50, 500, 5_000, 50_000, 500_000, core.NoIntervention}
}

func delayLabel(d sim.Time) string {
	if d == core.NoIntervention {
		return "Infinite"
	}
	return fmt.Sprintf("%d", uint64(d))
}

// Fig9 sweeps the delayed-intervention interval for every workload on the
// small configuration, reporting execution time normalized to the 5-cycle
// point exactly as the paper plots it.
func (s *Session) Fig9() ([]Fig9Row, error) {
	delays := Fig9Delays()
	apps := workload.All()

	var jobs []runner.Job
	for _, wl := range apps {
		for _, d := range delays {
			cfg := mech(core.DefaultConfig(), 32*1024, 32, true)
			cfg.Nodes = s.Opts.Nodes
			cfg.InterventionDelay = d
			jobs = append(jobs, s.Opts.job("fig9/"+wl.Name+"/"+delayLabel(d), cfg, wl))
		}
	}
	res, err := s.run(jobs)
	if err != nil {
		return nil, err
	}
	var rows []Fig9Row
	for i, wl := range apps {
		first := res[i*len(delays)].ExecCycles // the 5-cycle point
		for j, d := range delays {
			st := res[i*len(delays)+j]
			rows = append(rows, Fig9Row{wl.Name, delayLabel(d), st.ExecCycles,
				float64(st.ExecCycles) / float64(first)})
		}
	}
	return rows, nil
}

// Fig10Row is one point of the hop-latency sweep (Appbt, Figure 10).
type Fig10Row struct {
	HopNsec    int
	BaseCycles uint64
	MechCycles uint64
	Speedup    float64
}

// Fig10 sweeps network hop latency from 25 to 200 ns for Appbt, comparing
// the baseline with a 32-entry delegate cache system whose RAC is large
// enough for Appbt's consumer inflow. (The paper's Figure 10 reports 24-28%
// speedups for Appbt, which its own Figure 7 only ever shows for the
// large-RAC configurations — its 32K-RAC Appbt gains 8% — so we sweep the
// configuration its Figure 10 numbers are actually consistent with.)
func (s *Session) Fig10() ([]Fig10Row, error) {
	wl, _ := workload.ByName("appbt")
	hops := []int{25, 50, 100, 200}

	var jobs []runner.Job
	for _, ns := range hops {
		hop := sim.Time(ns * 2) // 2 GHz: 1 ns = 2 cycles
		base := core.DefaultConfig()
		base.Nodes = s.Opts.Nodes
		base.Network.HopLatency = hop
		mcfg := mech(base, 1024*1024, 32, true)
		jobs = append(jobs,
			s.Opts.job(fmt.Sprintf("fig10/%dns/base", ns), base, wl),
			s.Opts.job(fmt.Sprintf("fig10/%dns/mech", ns), mcfg, wl))
	}
	res, err := s.run(jobs)
	if err != nil {
		return nil, err
	}
	var rows []Fig10Row
	for i, ns := range hops {
		bst, mst := res[i*2], res[i*2+1]
		rows = append(rows, Fig10Row{ns, bst.ExecCycles, mst.ExecCycles,
			ratio(bst.ExecCycles, mst.ExecCycles)})
	}
	return rows, nil
}

// SweepRow is one point of the Figure 11/12 structure-size sweeps.
type SweepRow struct {
	Config   string
	Cycles   uint64
	Messages uint64
	Speedup  float64
	MsgRatio float64
	Undelegs uint64
	UpdAcc   float64
}

// sweepPoint is one mechanism sizing in a Figure 11/12 sweep.
type sweepPoint struct {
	entries int
	rac     int
	label   string
}

// sweep runs a baseline plus a series of mechanism sizings for one
// workload and normalizes each point to the baseline.
func (s *Session) sweep(figure, app string, pts []sweepPoint) ([]SweepRow, error) {
	wl, err := workload.Lookup(app)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	base := core.DefaultConfig()
	base.Nodes = s.Opts.Nodes

	jobs := []runner.Job{s.Opts.job(figure+"/"+app+"/base", base, wl)}
	for _, p := range pts {
		jobs = append(jobs, s.Opts.job(figure+"/"+app+"/"+p.label,
			mech(base, p.rac, p.entries, true), wl))
	}
	res, err := s.run(jobs)
	if err != nil {
		return nil, err
	}
	bst := res[0]
	rows := []SweepRow{{Config: "Base (32K RAC)", Cycles: bst.ExecCycles,
		Messages: bst.TotalMessages(), Speedup: 1, MsgRatio: 1}}
	for i, p := range pts {
		st := res[i+1]
		rows = append(rows, SweepRow{p.label, st.ExecCycles, st.TotalMessages(),
			ratio(bst.ExecCycles, st.ExecCycles),
			float64(st.TotalMessages()) / float64(bst.TotalMessages()),
			st.TotalUndelegations(), st.UpdateAccuracy()})
	}
	return rows, nil
}

// Fig11 sweeps the delegate-cache size for MG (32..1K entries at 32K RAC,
// plus the 1K/1M point), normalized to the baseline.
func (s *Session) Fig11() ([]SweepRow, error) {
	return s.sweep("fig11", "mg", []sweepPoint{
		{32, 32 * 1024, "32-entry deledc & 32K RAC"},
		{64, 32 * 1024, "64-entry deledc & 32K RAC"},
		{128, 32 * 1024, "128-entry deledc & 32K RAC"},
		{256, 32 * 1024, "256-entry deledc & 32K RAC"},
		{512, 32 * 1024, "512-entry deledc & 32K RAC"},
		{1024, 32 * 1024, "1K-entry deledc & 32K RAC"},
		{1024, 1024 * 1024, "1K-entry deledc & 1M RAC"},
	})
}

// Fig12 sweeps the RAC size for Appbt (32K..1M at 32 entries, plus the
// 1K/1M point), normalized to the baseline.
func (s *Session) Fig12() ([]SweepRow, error) {
	return s.sweep("fig12", "appbt", []sweepPoint{
		{32, 32 * 1024, "32-entry deledc & 32K RAC"},
		{32, 64 * 1024, "32-entry deledc & 64K RAC"},
		{32, 128 * 1024, "32-entry deledc & 128K RAC"},
		{32, 256 * 1024, "32-entry deledc & 256K RAC"},
		{32, 512 * 1024, "32-entry deledc & 512K RAC"},
		{32, 1024 * 1024, "32-entry deledc & 1M RAC"},
		{1024, 1024 * 1024, "1K-entry deledc & 1M RAC"},
	})
}

// AblationRow compares delegation-only against the baseline (§3.2: "the
// benefit of turning 3-hop misses into 2-hop misses roughly balanced out
// the overhead of delegation ... within 1% of the baseline").
type AblationRow struct {
	App          string
	BaseCycles   uint64
	DelegOnly    uint64
	DelegUpd     uint64
	DelegSpeedup float64
	FullSpeedup  float64
}

// Ablation runs every workload under baseline, delegation-only and
// delegation+updates on the small configuration.
func (s *Session) Ablation() ([]AblationRow, error) {
	base := core.DefaultConfig()
	base.Nodes = s.Opts.Nodes
	apps := workload.All()

	var jobs []runner.Job
	for _, wl := range apps {
		jobs = append(jobs,
			s.Opts.job("ablation/"+wl.Name+"/base", base, wl),
			s.Opts.job("ablation/"+wl.Name+"/deleg-only", mech(base, 32*1024, 32, false), wl),
			s.Opts.job("ablation/"+wl.Name+"/deleg-upd", mech(base, 32*1024, 32, true), wl))
	}
	res, err := s.run(jobs)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for i, wl := range apps {
		bst, dst, ust := res[i*3], res[i*3+1], res[i*3+2]
		rows = append(rows, AblationRow{wl.Name, bst.ExecCycles, dst.ExecCycles,
			ust.ExecCycles, ratio(bst.ExecCycles, dst.ExecCycles),
			ratio(bst.ExecCycles, ust.ExecCycles)})
	}
	return rows, nil
}
