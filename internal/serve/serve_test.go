package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pccsim/internal/harness"
	"pccsim/internal/runner"
)

// idleServer builds a server whose worker pool is never started, so
// accepted jobs stay queued forever. That makes queue-full and
// over-quota behavior deterministic: no race against a worker draining
// the queue between two submissions.
func idleServer(queueDepth, quota int) *Server {
	s := &Server{
		cfg:     Config{QueueDepth: queueDepth, TenantQuota: quota, Log: log.New(io.Discard, "", 0)}.withDefaults(),
		runner:  runner.New(1, nil),
		queue:   make(chan *Job, queueDepth),
		jobs:    make(map[string]*Job),
		tenants: make(map[string]int),
	}
	s.routes()
	return s
}

// liveServer is a real New() server with a quiet logger, torn down by
// draining (which also verifies Drain never hangs on these workloads).
func liveServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Log = log.New(io.Discard, "", 0)
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

func do(h http.Handler, method, path, tenant, body string) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func submit(t *testing.T, s *Server, tenant, body string) Status {
	t.Helper()
	rr := do(s.Handler(), "POST", "/v1/jobs", tenant, body)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: got %d: %s", rr.Code, rr.Body.String())
	}
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	return st
}

func getStatus(t *testing.T, s *Server, id string) Status {
	t.Helper()
	rr := do(s.Handler(), "GET", "/v1/jobs/"+id, "", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("status %s: got %d: %s", id, rr.Code, rr.Body.String())
	}
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("status response: %v", err)
	}
	return st
}

func waitFor(t *testing.T, s *Server, id string, pred func(Status) bool, what string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, s, id)
		if pred(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for job %s to be %s", id, what)
	return Status{}
}

func isTerminal(st Status) bool {
	return st.State == StateDone || st.State == StateFailed || st.State == StateCancelled
}

const fastRun = `{"workload":"em3d","nodes":8,"scale":1,"iters":2}`

// slowRun must outlive the polling that cancels or detaches from it;
// the cooperative interrupt stops it quickly afterwards either way.
const slowRun = `{"workload":"em3d","nodes":8,"scale":8,"iters":64}`

func TestSubmitQueueFull(t *testing.T) {
	s := idleServer(1, -1)
	submit(t, s, "", fastRun)
	rr := do(s.Handler(), "POST", "/v1/jobs", "", fastRun)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("second submit on full queue: got %d, want 429", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if !strings.Contains(rr.Body.String(), "queue full") {
		t.Errorf("429 body = %q, want queue-full explanation", rr.Body.String())
	}
}

func TestSubmitOverQuota(t *testing.T) {
	s := idleServer(16, 2)
	submit(t, s, "alice", fastRun)
	submit(t, s, "alice", fastRun)
	rr := do(s.Handler(), "POST", "/v1/jobs", "alice", fastRun)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("third submit over quota: got %d, want 429", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "over quota") {
		t.Errorf("429 body = %q, want over-quota explanation", rr.Body.String())
	}
	// Quotas are per tenant: another tenant still gets in.
	submit(t, s, "bob", fastRun)
}

func TestSubmitRejectsBadSpecs(t *testing.T) {
	s := idleServer(4, -1)
	for name, body := range map[string]string{
		"malformed json":        `{"workload"`,
		"unknown kind":          `{"kind":"exploit"}`,
		"unknown field":         `{"workload":"em3d","nodse":8}`,
		"unknown workload":      `{"workload":"quicksort"}`,
		"bad fuzz budget":       `{"kind":"fuzz","budget":"yesterday"}`,
		"unknown protocol":      `{"workload":"em3d","protocol":"mosi"}`,
		"illegal mechanisms":    `{"workload":"em3d","protocol":"mesi","rac":32768,"deledc":32}`,
		"unknown fuzz protocol": `{"kind":"fuzz","cases":1,"protocol":"mosi"}`,
		"retired bench kind":    `{"kind":"bench"}`,
		"negative scale":        `{"workload":"em3d","scale":-1}`,
		"negative iters":        `{"kind":"experiment","exp":"fig9","iters":-3}`,
	} {
		rr := do(s.Handler(), "POST", "/v1/jobs", "", body)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400 (body %q)", name, rr.Code, rr.Body.String())
		}
	}
	// Nothing malformed should have been enqueued.
	if n := len(s.queue); n != 0 {
		t.Errorf("queue holds %d jobs after rejected submissions", n)
	}
}

// TestSubmitValidatesExperimentName pins the experiment kind's accepted
// set to the harness experiments with a CSV writer: an unknown name or
// one without a CSV form is a 400 at submission, and every CSV-capable
// experiment is accepted.
func TestSubmitValidatesExperimentName(t *testing.T) {
	s := idleServer(16, -1)
	for _, name := range []string{"fig99", "", "all", "table1", "table2", "extensions", "related"} {
		rr := do(s.Handler(), "POST", "/v1/jobs", "", `{"kind":"experiment","exp":"`+name+`"}`)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("exp %q: got %d, want 400 (body %q)", name, rr.Code, rr.Body.String())
		} else if !strings.Contains(rr.Body.String(), "fig7|") {
			t.Errorf("exp %q: 400 body %q does not list the accepted experiments", name, rr.Body.String())
		}
	}
	if n := len(s.queue); n != 0 {
		t.Errorf("queue holds %d jobs after rejected experiments", n)
	}
	for _, name := range harness.ExperimentNames(true) {
		submit(t, s, "", `{"kind":"experiment","exp":"`+name+`"}`)
	}
}

// TestExperimentJobMatchesHarnessCSV runs the bake-off as a job and
// checks the body is the harness's CSV for the same options.
func TestExperimentJobMatchesHarnessCSV(t *testing.T) {
	s := liveServer(t, Config{Workers: 1, QueueDepth: 4, RunnerWorkers: 2})
	st := submit(t, s, "", `{"kind":"experiment","exp":"compare","nodes":8,"iters":2}`)
	if got := waitFor(t, s, st.ID, isTerminal, "terminal"); got.State != StateDone {
		t.Fatalf("compare job ended %s: %s", got.State, got.Error)
	}
	rr := do(s.Handler(), "GET", "/v1/jobs/"+st.ID+"/result", "", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("result: got %d: %s", rr.Code, rr.Body.String())
	}
	e, _ := harness.LookupExperiment("compare")
	var want bytes.Buffer
	if err := e.WriteCSV(&want, harness.NewSession(harness.Options{Nodes: 8, Scale: 1, Iters: 2})); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rr.Body.Bytes(), want.Bytes()) {
		t.Fatalf("job body differs from the harness CSV:\n%s\nwant:\n%s", rr.Body.String(), want.String())
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := idleServer(4, 2)
	st := submit(t, s, "alice", fastRun)
	rr := do(s.Handler(), "DELETE", "/v1/jobs/"+st.ID, "", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("cancel queued: got %d: %s", rr.Code, rr.Body.String())
	}
	if got := getStatus(t, s, st.ID); got.State != StateCancelled {
		t.Fatalf("state after cancel = %s, want %s", got.State, StateCancelled)
	}
	if rr := do(s.Handler(), "GET", "/v1/jobs/"+st.ID+"/result", "", ""); rr.Code != http.StatusGone {
		t.Errorf("result of cancelled job: got %d, want 410", rr.Code)
	}
	if rr := do(s.Handler(), "DELETE", "/v1/jobs/"+st.ID, "", ""); rr.Code != http.StatusConflict {
		t.Errorf("double cancel: got %d, want 409", rr.Code)
	}
	// The quota slot was released: two more submissions fit.
	submit(t, s, "alice", fastRun)
	submit(t, s, "alice", fastRun)
}

func TestResultBeforeTerminal(t *testing.T) {
	s := idleServer(4, -1)
	st := submit(t, s, "", fastRun)
	if rr := do(s.Handler(), "GET", "/v1/jobs/"+st.ID+"/result", "", ""); rr.Code != http.StatusConflict {
		t.Errorf("result of queued job: got %d, want 409", rr.Code)
	}
	if rr := do(s.Handler(), "GET", "/v1/jobs/nope/result", "", ""); rr.Code != http.StatusNotFound {
		t.Errorf("result of unknown job: got %d, want 404", rr.Code)
	}
}

func TestCancelMidRun(t *testing.T) {
	s := liveServer(t, Config{Workers: 1, QueueDepth: 4, RunnerWorkers: 1})
	st := submit(t, s, "", slowRun)
	// Wait until the simulation is demonstrably in flight (the obs tap
	// has counted events), then interrupt it.
	waitFor(t, s, st.ID, func(st Status) bool {
		return isTerminal(st) || (st.State == StateRunning && st.ObsEvents > 0)
	}, "running with progress")
	rr := do(s.Handler(), "DELETE", "/v1/jobs/"+st.ID, "", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("cancel running: got %d: %s", rr.Code, rr.Body.String())
	}
	got := waitFor(t, s, st.ID, isTerminal, "terminal")
	if got.State != StateCancelled {
		t.Fatalf("state after mid-run cancel = %s, want %s", got.State, StateCancelled)
	}
	if rr := do(s.Handler(), "GET", "/v1/jobs/"+st.ID+"/result", "", ""); rr.Code != http.StatusGone {
		t.Errorf("result of cancelled job: got %d, want 410", rr.Code)
	}
}

func TestEventsClientDisconnectMidStream(t *testing.T) {
	s := liveServer(t, Config{Workers: 1, QueueDepth: 4, RunnerWorkers: 1})
	st := submit(t, s, "", slowRun)

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/events", nil).WithContext(ctx)
	rr := httptest.NewRecorder()
	returned := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rr, req)
		close(returned)
	}()
	time.Sleep(50 * time.Millisecond)
	cancel() // client goes away mid-stream
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("events handler did not return after client disconnect")
	}
	if !strings.Contains(rr.Body.String(), "event: progress") {
		t.Errorf("stream body %q lacks an initial progress event", rr.Body.String())
	}
	// The disconnect must not have cancelled the job.
	if got := getStatus(t, s, st.ID); got.State == StateCancelled {
		t.Fatal("client disconnect cancelled the job")
	}
	// Clean up the long run so Drain in cleanup is quick.
	do(s.Handler(), "DELETE", "/v1/jobs/"+st.ID, "", "")
	waitFor(t, s, st.ID, isTerminal, "terminal")
}

func TestEventsStreamEndsWithDone(t *testing.T) {
	s := liveServer(t, Config{Workers: 1, QueueDepth: 4, RunnerWorkers: 1})
	st := submit(t, s, "", fastRun)
	waitFor(t, s, st.ID, isTerminal, "terminal")
	rr := do(s.Handler(), "GET", "/v1/jobs/"+st.ID+"/events", "", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("events: got %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("events content type = %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "event: done") {
		t.Errorf("stream body %q lacks the final done event", rr.Body.String())
	}
}

func TestTraceMatchesStoredResult(t *testing.T) {
	s := liveServer(t, Config{Workers: 1, QueueDepth: 4, RunnerWorkers: 1})
	st := submit(t, s, "", fastRun)
	waitFor(t, s, st.ID, isTerminal, "terminal")
	rr := do(s.Handler(), "GET", "/v1/jobs/"+st.ID+"/trace", "", "")
	if rr.Code != http.StatusOK {
		t.Fatalf("trace: got %d: %s", rr.Code, rr.Body.String())
	}
	if !strings.Contains(rr.Body.String(), "traceEvents") {
		t.Error("trace body is not Perfetto trace-event JSON")
	}
}

// TestRunWithProtocol submits the same cell under mesi and each rival
// protocol; all complete, and every rival's report differs from mesi's
// (different protocols really ran). The dsi name alone must switch on
// self-invalidation, which its report shows.
func TestRunWithProtocol(t *testing.T) {
	s := liveServer(t, Config{Workers: 2, QueueDepth: 8, RunnerWorkers: 1})
	// Four barnes iterations: enough rounds for hybrid's update streak
	// and dsi's producer-consumer detection to engage, so the reports are
	// observably different protocols.
	report := func(proto string) string {
		t.Helper()
		st := submit(t, s, "", `{"workload":"barnes","nodes":8,"scale":1,"iters":4,"protocol":"`+proto+`"}`)
		if st := waitFor(t, s, st.ID, isTerminal, "terminal"); st.State != StateDone {
			t.Fatalf("%s: state = %s, want %s (%s)", proto, st.State, StateDone, st.Error)
		}
		rr := do(s.Handler(), "GET", "/v1/jobs/"+st.ID+"/result", "", "")
		if rr.Code != http.StatusOK {
			t.Fatalf("%s result: got %d", proto, rr.Code)
		}
		return rr.Body.String()
	}
	mesi := report("mesi")
	for _, proto := range []string{"hybrid", "dsi"} {
		if got := report(proto); got == mesi {
			t.Errorf("mesi and %s runs returned identical reports", proto)
		} else if proto == "dsi" && !strings.Contains(got, "self-downgrades:") {
			t.Errorf("dsi report shows no self-downgrades:\n%s", got)
		}
	}
}

func TestDrainFinishesInFlightJobsAndRefusesNew(t *testing.T) {
	s := liveServer(t, Config{Workers: 2, QueueDepth: 8, RunnerWorkers: 1})
	ids := []string{
		submit(t, s, "ci", fastRun).ID,
		submit(t, s, "ci", fastRun).ID, // duplicate: exercises the memo under drain
		submit(t, s, "ci", `{"workload":"em3d","nodes":8,"scale":1,"iters":4}`).ID,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	s.Drain(ctx)

	for _, id := range ids {
		if got := getStatus(t, s, id); got.State != StateDone {
			t.Errorf("job %s after drain = %s, want %s", id, got.State, StateDone)
		}
	}
	if rr := do(s.Handler(), "POST", "/v1/jobs", "", fastRun); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: got %d, want 503", rr.Code)
	}
	if rr := do(s.Handler(), "GET", "/v1/healthz", "", ""); rr.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: got %d, want 503", rr.Code)
	}
	stats := s.snapshotStats()
	if stats.JobsDone != 3 {
		t.Errorf("jobs_done = %d, want 3", stats.JobsDone)
	}
	if stats.JobsCached == 0 {
		t.Error("duplicate submission was not served from the memo")
	}
}

func TestDuplicateJobsAreByteIdentical(t *testing.T) {
	s := liveServer(t, Config{Workers: 2, QueueDepth: 8, RunnerWorkers: 1})
	a := submit(t, s, "alice", fastRun)
	b := submit(t, s, "bob", fastRun)
	waitFor(t, s, a.ID, isTerminal, "terminal")
	waitFor(t, s, b.ID, isTerminal, "terminal")
	ra := do(s.Handler(), "GET", "/v1/jobs/"+a.ID+"/result", "", "")
	rb := do(s.Handler(), "GET", "/v1/jobs/"+b.ID+"/result", "", "")
	if ra.Code != http.StatusOK || rb.Code != http.StatusOK {
		t.Fatalf("results: got %d and %d", ra.Code, rb.Code)
	}
	if ra.Body.String() != rb.Body.String() {
		t.Error("duplicate submissions returned different bytes")
	}
	if len(ra.Body.String()) == 0 {
		t.Error("empty result body")
	}
}
