package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pccsim/internal/fault"
	"pccsim/internal/harness"
	"pccsim/internal/node"
	"pccsim/internal/obs"
	"pccsim/internal/runner"
)

// Job states. A job moves queued → running → one of the terminal states;
// cancelled can also be reached straight from queued.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Job is one unit of server work: a simulation run, a harness experiment,
// or a fuzz campaign.
type Job struct {
	ID      string
	Tenant  string
	Kind    string
	Created time.Time

	// ctx is cancelled by DELETE and by drain timeouts; run jobs
	// propagate it into the runner's cooperative interrupt.
	ctx    context.Context
	cancel context.CancelFunc
	// done closes when the job reaches a terminal state.
	done chan struct{}

	// Live progress, written by the simulation's obs tap (run jobs) or
	// the campaign logger; read by the SSE stream without locks.
	obsEvents atomic.Uint64
	simTime   atomic.Uint64

	// run-job cell, kept for the trace endpoint's deterministic re-run.
	cell runner.Job

	mu       sync.Mutex
	specv    any // decoded kind-specific spec, set before enqueue
	state    string
	started  time.Time
	finished time.Time
	cached   bool // result came from the memo, not a fresh simulation
	errMsg   string
	body     []byte
	ctype    string
	released bool // tenant quota slot given back
}

func (j *Job) setState(s string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = s
	switch s {
	case StateRunning:
		j.started = time.Now()
	case StateDone, StateFailed, StateCancelled:
		j.finished = time.Now()
	}
}

// Status is the wire form of a job's state, served by GET /v1/jobs/{id}
// and embedded in SSE progress events.
type Status struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	Tenant    string `json:"tenant"`
	State     string `json:"state"`
	Cached    bool   `json:"cached,omitempty"`
	Error     string `json:"error,omitempty"`
	ObsEvents uint64 `json:"obs_events,omitempty"`
	SimTime   uint64 `json:"sim_time,omitempty"`
	Bytes     int    `json:"result_bytes,omitempty"`
}

func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID: j.ID, Kind: j.Kind, Tenant: j.Tenant, State: j.state,
		Cached: j.cached, Error: j.errMsg,
		ObsEvents: j.obsEvents.Load(), SimTime: j.simTime.Load(),
		Bytes: len(j.body),
	}
}

// runSpec is a run job's body: the pccsim CLI's root flags, as the one
// harness.RunSpec both decode into.
type runSpec struct {
	Kind string `json:"kind"`
	harness.RunSpec
}

// execRun simulates one cell through the shared runner (so duplicates —
// within this server's lifetime, across tenants — are served from the
// memo) and renders the canonical run report.
func (s *Server) execRun(j *Job, sp *runSpec) error {
	cell, err := sp.Cell()
	if err != nil {
		return err
	}
	j.cell = cell
	cell.Label = "serve/" + j.ID
	cell.Attach = func(m *node.Machine) {
		// Progress rides the obs stream: a metrics-only sink whose tap
		// counts protocol events and tracks the simulation clock. The
		// sink never feeds back into the simulation, so attaching it
		// keeps the run bit-identical to an unobserved one.
		sink := obs.NewSink(0)
		sink.Tap = func(e obs.Event) {
			j.obsEvents.Add(1)
			j.simTime.Store(uint64(e.At))
		}
		m.Sys.AttachObs(sink)
	}
	st, cached, err := s.runner.RunOneCtx(j.ctx, cell)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	harness.WriteRunReport(&buf, cell, st)
	j.mu.Lock()
	j.body, j.ctype, j.cached = buf.Bytes(), "text/plain; charset=utf-8", cached
	j.mu.Unlock()
	return nil
}

// experimentSpec selects one harness experiment with a CSV writer;
// rendered as the same CSV bytes pccbench writes.
type experimentSpec struct {
	Kind          string `json:"kind"`
	Exp           string `json:"exp"`
	Nodes         int    `json:"nodes"`
	Scale         int    `json:"scale"`
	Iters         int    `json:"iters"`
	Shards        int    `json:"shards"`
	Deterministic bool   `json:"deterministic"`
}

// experiment applies the zero-means-default rule to the spec's sizes,
// validates them and looks its name up in the harness experiment list;
// only experiments with a CSV writer can be served.
func (sp *experimentSpec) experiment() (harness.Experiment, harness.Options, error) {
	opts := harness.Options{
		Nodes: sp.Nodes, Scale: sp.Scale, Iters: sp.Iters,
		Shards: sp.Shards, Deterministic: sp.Deterministic,
	}.WithDefaults()
	if err := opts.Validate(); err != nil {
		return harness.Experiment{}, opts, err
	}
	e, ok := harness.LookupExperiment(sp.Exp)
	if !ok || !e.HasCSV() {
		return harness.Experiment{}, opts, fmt.Errorf("unknown experiment %q (%s)", sp.Exp,
			strings.Join(harness.ExperimentNames(true), "|"))
	}
	return e, opts, nil
}

// execExperiment runs one figure/table through a throwaway Session on the
// server's shared runner: every cell an earlier request already simulated
// is free. The session carries the job's context, so DELETE (and drain
// timeout) interrupts the cells currently simulating and skips the rest
// of the batch instead of letting it run to completion.
func (s *Server) execExperiment(j *Job, sp *experimentSpec) error {
	e, opts, err := sp.experiment()
	if err != nil {
		return err
	}
	sess := harness.NewSessionOn(s.runner, opts).WithContext(j.ctx)
	var buf bytes.Buffer
	if err := e.WriteCSV(&buf, sess); err != nil {
		return err
	}
	j.mu.Lock()
	j.body, j.ctype = buf.Bytes(), "text/csv; charset=utf-8"
	j.mu.Unlock()
	return nil
}

// fuzzSpec describes a seeded fuzz campaign — the nightly workflow's
// 20-minute run is exactly this job with a date seed.
type fuzzSpec struct {
	Kind        string `json:"kind"`
	Seed        int64  `json:"seed"`
	Cases       int    `json:"cases"`
	Budget      string `json:"budget"` // Go duration, e.g. "20m"
	Workers     int    `json:"workers"`
	Shrink      *int   `json:"shrink"`
	MaxFailures *int   `json:"max_failures"`
	Protocol    string `json:"protocol"` // pin generation to one protocol ("" = mixed)
}

// fuzzResult is a fuzz job's JSON body. Shrunk reproductions ride along
// so a thin client can write corpus-format repro files on failure.
type fuzzResult struct {
	Ok        bool          `json:"ok"`
	Cases     int           `json:"cases"`
	Perturbed int           `json:"perturbed"`
	Events    uint64        `json:"events"`
	WallSecs  float64       `json:"wall_seconds"`
	Failures  []fuzzFailure `json:"failures,omitempty"`
}

type fuzzFailure struct {
	Seed    int64      `json:"seed"`
	Failure string     `json:"failure"`
	Shrunk  fault.Case `json:"shrunk"`
}

// execFuzz runs a campaign. The campaign itself is already bounded by
// Cases/Budget and parallel across private engines; like experiments it
// cancels only while queued. A campaign that finds failures still
// completes as "done" — the verdict is in the body's ok field, where a
// thin client turns it into an exit code after saving the repros.
func (s *Server) execFuzz(j *Job, sp *fuzzSpec) error {
	var budget time.Duration
	if sp.Budget != "" {
		var err error
		if budget, err = time.ParseDuration(sp.Budget); err != nil {
			return fmt.Errorf("budget: %w", err)
		}
	}
	if sp.Cases == 0 && budget == 0 {
		sp.Cases = 200
	}
	shrink, maxFail := 2000, 5
	if sp.Shrink != nil {
		shrink = *sp.Shrink
	}
	if sp.MaxFailures != nil {
		maxFail = *sp.MaxFailures
	}
	cr := fault.RunCampaign(fault.CampaignOpts{
		Seed: sp.Seed, Cases: sp.Cases, Budget: budget, Workers: sp.Workers,
		ShrinkRuns: shrink, MaxFailures: maxFail,
		Gen: fault.GenOpts{Protocol: sp.Protocol}, Log: jobLog{j},
	})
	res := fuzzResult{
		Ok: len(cr.Failures) == 0, Cases: cr.Cases, Perturbed: cr.Perturbed,
		Events: cr.Events, WallSecs: cr.Wall.Seconds(),
	}
	for _, f := range cr.Failures {
		f.Shrunk.Note = fmt.Sprintf("shrunk from seed %d: %s", f.Seed, f.Result.Failure)
		res.Failures = append(res.Failures, fuzzFailure{
			Seed: f.Seed, Failure: f.Result.Failure, Shrunk: f.Shrunk,
		})
	}
	enc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	j.mu.Lock()
	j.body, j.ctype = enc, "application/json"
	j.mu.Unlock()
	return nil
}

// jobLog adapts a job's progress counter into the campaign's io.Writer
// logger: each log write bumps the obs-event counter so SSE watchers see
// a heartbeat (the campaign's engines are private; their event totals
// arrive with the final summary).
type jobLog struct{ j *Job }

func (l jobLog) Write(p []byte) (int, error) {
	l.j.obsEvents.Add(1)
	return len(p), nil
}
