// Package serve is the multi-tenant simulation service behind
// `pccsim serve`: a stdlib net/http JSON API that accepts simulation
// runs, harness experiments and fuzz campaigns as jobs on a bounded
// queue, executes them on a fixed worker pool over the shared
// internal/runner memo (duplicate submissions — across requests and
// tenants — simulate once and return byte-identical bodies), streams
// progress over SSE, exports Perfetto traces, and drains gracefully on
// shutdown.
//
// Determinism is the API contract: a run job's result body is
// byte-identical to the equivalent pccsim CLI invocation's stdout,
// including under -shards, because both paths fill one harness.RunSpec,
// build the cell with its Cell method and render through
// harness.WriteRunReport.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pccsim/internal/harness"
	"pccsim/internal/node"
	"pccsim/internal/obs"
	"pccsim/internal/protocol"
	"pccsim/internal/runner"
	"pccsim/internal/sim"
)

// Config sizes the server. The zero value is usable: every field has a
// serving default applied by New.
type Config struct {
	// Addr is the listen address (cmd-layer concern; carried here so the
	// flag>file>default loader has one struct to fill).
	Addr string
	// QueueDepth bounds queued-but-not-running jobs; a full queue makes
	// submission return 429. Default 64.
	QueueDepth int
	// Workers is the number of concurrent job executors. Default 2 —
	// jobs themselves parallelize internally (experiment batches, fuzz
	// campaigns), so a small executor count keeps memory bounded.
	Workers int
	// TenantQuota caps one tenant's queued+running jobs; over quota is
	// 429. Default 8; negative = unlimited.
	TenantQuota int
	// RunnerWorkers sizes the shared simulation pool batches fan out on
	// (0 = GOMAXPROCS).
	RunnerWorkers int
	// DrainTimeout bounds Drain: jobs still running when it expires are
	// cancelled cooperatively. Default 2 minutes.
	DrainTimeout time.Duration
	// Log receives one line per lifecycle event (nil = log.Default).
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.TenantQuota == 0 {
		c.TenantQuota = 8
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 2 * time.Minute
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	return c
}

// Server is the job service. Create with New, expose via Handler, stop
// with Drain.
type Server struct {
	cfg    Config
	runner *runner.Runner
	mux    *http.ServeMux
	wg     sync.WaitGroup
	queue  chan *Job

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	tenants  map[string]int
	draining bool
	nextID   int

	// Submission-level result accounting (the runner's CacheStats counts
	// simulation cells; these count whole jobs, which is what the soak
	// test's "duplicate submissions were memoized" assertion reads).
	jobsDone   uint64
	jobsCached uint64
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		runner:  runner.New(cfg.RunnerWorkers, nil),
		queue:   make(chan *Job, cfg.QueueDepth),
		jobs:    make(map[string]*Job),
		tenants: make(map[string]int),
	}
	s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
}

// tenant resolves the requesting tenant; quotas key on this. Absent
// header = the shared "anon" tenant.
func tenant(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "anon"
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit accepts a job. Responses: 202 with the job's status, 400
// on a malformed spec, 429 when the queue is full or the tenant is over
// quota (with Retry-After), 503 while draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var env struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		httpError(w, http.StatusBadRequest, "parsing job: %v", err)
		return
	}
	// Strict per-kind decode: unknown fields are almost always typos of
	// real spec fields, and a silently ignored knob would submit a
	// different cell than the client thinks it did.
	var spec any
	switch env.Kind {
	case "run", "":
		env.Kind, spec = "run", &runSpec{}
	case "experiment":
		spec = &experimentSpec{}
	case "fuzz":
		spec = &fuzzSpec{}
	default:
		httpError(w, http.StatusBadRequest, "unknown kind %q (run|experiment|fuzz)", env.Kind)
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		httpError(w, http.StatusBadRequest, "parsing %s spec: %v", env.Kind, err)
		return
	}
	// Validate what can be validated up front, so a bad spec is a 400 at
	// submission, not a failed job minutes later.
	switch sp := spec.(type) {
	case *runSpec:
		if _, err := sp.Cell(); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	case *experimentSpec:
		if _, _, err := sp.experiment(); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	case *fuzzSpec:
		if sp.Budget != "" {
			if _, err := time.ParseDuration(sp.Budget); err != nil {
				httpError(w, http.StatusBadRequest, "fuzz budget: %v", err)
				return
			}
		}
		if sp.Protocol != "" {
			if _, err := protocol.Lookup(sp.Protocol); err != nil {
				httpError(w, http.StatusBadRequest, "fuzz protocol: %v", err)
				return
			}
		}
	}

	ten := tenant(r)
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		Tenant: ten, Kind: env.Kind, Created: time.Now(),
		ctx: ctx, cancel: cancel, done: make(chan struct{}),
		state: StateQueued,
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if q := s.cfg.TenantQuota; q > 0 && s.tenants[ten] >= q {
		s.mu.Unlock()
		cancel()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "tenant %q over quota (%d active jobs)", ten, q)
		return
	}
	s.nextID++
	j.ID = "j" + strconv.Itoa(s.nextID)
	j.specv = spec
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		cancel()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "queue full (%d jobs)", s.cfg.QueueDepth)
		return
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.tenants[ten]++
	s.mu.Unlock()

	s.cfg.Log.Printf("serve: %s accepted %s job %s", ten, j.Kind, j.ID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(j.status())
}

// worker drains the queue until it is closed (drain) and empty. Each
// dequeued job runs to a terminal state before the next is taken, so
// closing the queue and waiting for the workers is exactly "no dropped
// in-flight jobs".
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *Job) {
	j.mu.Lock()
	if j.state == StateCancelled {
		j.mu.Unlock()
		return // cancelled while queued; slot already released
	}
	spec := j.specv
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()

	var err error
	switch sp := spec.(type) {
	case *runSpec:
		err = s.execRun(j, sp)
	case *experimentSpec:
		err = s.execExperiment(j, sp)
	case *fuzzSpec:
		err = s.execFuzz(j, sp)
	default:
		err = fmt.Errorf("no spec attached")
	}

	st := StateDone
	if err != nil {
		st = StateFailed
		if errors.Is(err, sim.ErrInterrupted) || j.ctx.Err() != nil {
			st = StateCancelled
		}
		j.mu.Lock()
		j.errMsg = err.Error()
		j.mu.Unlock()
	}
	j.setState(st)
	s.release(j)
	close(j.done)
	j.cancel()
	status := j.status()
	s.mu.Lock()
	s.jobsDone++
	if status.Cached {
		s.jobsCached++
	}
	s.mu.Unlock()
	s.cfg.Log.Printf("serve: job %s (%s/%s) %s cached=%v bytes=%d err=%q",
		j.ID, j.Tenant, j.Kind, status.State, status.Cached, status.Bytes, status.Error)
}

// release returns the job's tenant-quota slot exactly once.
func (s *Server) release(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.released {
		j.released = true
		s.tenants[j.Tenant]--
	}
}

func (s *Server) job(r *http.Request) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[r.PathValue("id")]
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.job(r)
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.status())
}

// handleResult serves the finished body with the job's content type —
// for run jobs, the bytes the CLI would have printed. 409 until the job
// reaches a terminal state; 410 for cancelled jobs; 424 for failed ones.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.job(r)
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	state, errMsg, body, ctype := j.state, j.errMsg, j.body, j.ctype
	j.mu.Unlock()
	switch state {
	case StateQueued, StateRunning:
		httpError(w, http.StatusConflict, "job is %s; poll status or stream events", state)
	case StateCancelled:
		httpError(w, http.StatusGone, "job was cancelled: %s", errMsg)
	case StateFailed:
		httpError(w, http.StatusFailedDependency, "job failed: %s", errMsg)
	default:
		w.Header().Set("Content-Type", ctype)
		w.Write(body)
	}
}

// handleCancel cancels a queued or running job. Queued jobs flip straight
// to cancelled; running run-jobs get a cooperative interrupt and report
// cancelled once the simulation notices (experiment/fuzz jobs
// complete — their batches have no per-cell cancellation).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(r)
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	state := j.state
	if state == StateQueued {
		j.state = StateCancelled
		j.errMsg = "cancelled while queued"
		j.finished = time.Now()
	}
	j.mu.Unlock()
	switch state {
	case StateQueued:
		s.release(j)
		j.cancel()
		close(j.done)
		s.cfg.Log.Printf("serve: job %s cancelled while queued", j.ID)
	case StateRunning:
		j.cancel()
		s.cfg.Log.Printf("serve: job %s interrupt requested", j.ID)
	default:
		httpError(w, http.StatusConflict, "job already %s", state)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.status())
}

// handleTrace re-runs a finished run job with an unbounded obs sink and
// exports the protocol event stream as Perfetto/Chrome trace JSON. The
// re-run's report must byte-match the stored result — the simulator is
// deterministic, so a mismatch is a server bug worth a 500, not a quiet
// shrug (the same hard cross-check `pccsim trace` makes).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.job(r)
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	state, cell, want := j.state, j.cell, j.body
	j.mu.Unlock()
	if j.Kind != "run" {
		httpError(w, http.StatusBadRequest, "traces exist for run jobs only")
		return
	}
	if state != StateDone {
		httpError(w, http.StatusConflict, "job is %s; trace needs a finished run", state)
		return
	}
	sink := obs.NewSink(-1)
	st, err := cell.Simulate(node.WithSink(sink))
	if err != nil {
		httpError(w, http.StatusInternalServerError, "trace re-run: %v", err)
		return
	}
	var got bytes.Buffer
	harness.WriteRunReport(&got, cell, st)
	if !bytes.Equal(got.Bytes(), want) {
		httpError(w, http.StatusInternalServerError,
			"trace re-run diverged from stored result (%d vs %d bytes) — determinism bug", got.Len(), len(want))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", "attachment; filename="+j.ID+"-trace.json")
	if err := obs.WritePerfetto(w, sink); err != nil {
		s.cfg.Log.Printf("serve: job %s trace write: %v", j.ID, err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]any{"ok": !draining, "draining": draining})
}

// Stats is the /v1/stats body.
type Stats struct {
	Jobs       map[string]int `json:"jobs"`
	QueueLen   int            `json:"queue_len"`
	QueueCap   int            `json:"queue_cap"`
	Tenants    map[string]int `json:"tenants"`
	Draining   bool           `json:"draining"`
	JobsDone   uint64         `json:"jobs_done"`
	JobsCached uint64         `json:"jobs_cached"`
	MemoHits   uint64         `json:"memo_hits"`
	MemoMisses uint64         `json:"memo_misses"`
	MemoCells  int            `json:"memo_cells"`
}

func (s *Server) snapshotStats() Stats {
	hits, misses := s.runner.CacheStats()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Jobs:     map[string]int{},
		QueueLen: len(s.queue), QueueCap: cap(s.queue),
		Tenants: map[string]int{}, Draining: s.draining,
		JobsDone: s.jobsDone, JobsCached: s.jobsCached,
		MemoHits: hits, MemoMisses: misses, MemoCells: s.runner.Cells(),
	}
	for _, j := range s.jobs {
		st.Jobs[j.status().State]++
	}
	for t, n := range s.tenants {
		if n > 0 {
			st.Tenants[t] = n
		}
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.snapshotStats())
}

// Drain gracefully stops the job layer: new submissions get 503, queued
// and running jobs finish, and when ctx (bounded by Config.DrainTimeout
// at the cmd layer) expires first, the stragglers are cancelled
// cooperatively and still waited for. Safe to call once; the HTTP
// listener's own Shutdown runs after this, so event streams attached to
// in-flight jobs survive until those jobs finish.
func (s *Server) Drain(ctx context.Context) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()
	s.cfg.Log.Printf("serve: draining (%d queued)", len(s.queue))

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.cfg.Log.Printf("serve: drain timeout; interrupting in-flight jobs")
		s.mu.Lock()
		for _, j := range s.jobs {
			j.cancel()
		}
		s.mu.Unlock()
		<-done
	}
	s.cfg.Log.Printf("serve: drained")
}
