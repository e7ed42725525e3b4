package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestSoak exercises the built pccsim binary end to end the way CI's
// soak job does: k concurrent clients hammer one server with a small
// set of duplicate-heavy job specs, and the test asserts the service
// contract — every job completes, duplicate submissions are memoized
// and byte-identical, an HTTP result matches the equivalent CLI run
// byte for byte (including under -shards), and a
// SIGTERM drains gracefully without dropping accepted jobs.
//
// Opt-in (it builds and forks the real binary): set PCCSIM_SOAK=1.
// PCCSIM_SOAK_CLIENTS overrides the client count (default 8) and
// PCCSIM_SOAK_LOGDIR keeps the server log where CI can attach it as a
// failure artifact.
func TestSoak(t *testing.T) {
	if os.Getenv("PCCSIM_SOAK") == "" {
		t.Skip("soak test is opt-in: set PCCSIM_SOAK=1")
	}
	k := 8
	if v := os.Getenv("PCCSIM_SOAK_CLIENTS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad PCCSIM_SOAK_CLIENTS=%q", v)
		}
		k = n
	}
	logDir := os.Getenv("PCCSIM_SOAK_LOGDIR")
	if logDir == "" {
		logDir = t.TempDir()
	} else if err := os.MkdirAll(logDir, 0o755); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(logDir, "serve.log")

	bin := filepath.Join(t.TempDir(), "pccsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building pccsim: %v\n%s", err, out)
	}

	srv := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-queue", "128", "-quota", "-1", "-workers", "4")
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Process.Kill()
		srv.Wait()
		if t.Failed() {
			data, _ := os.ReadFile(logPath)
			t.Logf("server log (%s):\n%s", logPath, data)
		}
	})

	// The startup handshake: the first log line names the actual address
	// (we listen on :0). Everything the server says lands in logPath so a
	// failing CI job has the full history to attach.
	sc := bufio.NewScanner(io.TeeReader(stderr, logFile))
	base := ""
	for sc.Scan() {
		if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
			base = addr
			break
		}
	}
	if base == "" {
		t.Fatal("server never logged its listening address")
	}
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		for sc.Scan() {
		}
		logFile.Close()
	}()

	// Four distinct specs across k*4 jobs guarantees heavy duplication.
	// One spec runs sharded, where windows grow by default: the
	// determinism contract explicitly covers the parallel scheduler.
	specs := []string{
		`{"workload":"em3d","nodes":8,"scale":1,"iters":2}`,
		`{"workload":"em3d","nodes":16,"scale":1,"iters":2,"shards":4}`,
		`{"workload":"mg","nodes":8,"scale":1}`,
		`{"workload":"cg","nodes":8,"scale":1}`,
	}
	cliEquiv := map[int][]string{
		0: {"-workload", "em3d", "-nodes", "8", "-scale", "1", "-iters", "2"},
		1: {"-workload", "em3d", "-nodes", "16", "-scale", "1", "-iters", "2", "-shards", "4"},
	}

	const jobsPerClient = 4
	bodies := make([][][]byte, len(specs)) // spec index -> result bodies
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, k*jobsPerClient)
	for c := 0; c < k; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("client-%d", c)
			for i := 0; i < jobsPerClient; i++ {
				si := (c + i) % len(specs)
				body, err := runJobHTTP(base, tenant, specs[si])
				if err != nil {
					errs <- fmt.Errorf("%s job %d: %w", tenant, i, err)
					continue
				}
				mu.Lock()
				bodies[si] = append(bodies[si], body)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Duplicate submissions must be byte-identical, across clients.
	for si, got := range bodies {
		if len(got) != k*jobsPerClient/len(specs) {
			t.Errorf("spec %d: %d results, want %d", si, len(got), k*jobsPerClient/len(specs))
		}
		for _, b := range got {
			if !bytes.Equal(b, got[0]) {
				t.Errorf("spec %d: duplicate submissions returned different bytes", si)
				break
			}
		}
	}

	// The duplicates must have come from the memo, not been re-simulated.
	var stats struct {
		JobsDone   uint64 `json:"jobs_done"`
		JobsCached uint64 `json:"jobs_cached"`
		MemoHits   uint64 `json:"memo_hits"`
	}
	if err := getJSON(base+"/v1/stats", &stats); err != nil {
		t.Fatal(err)
	}
	if stats.JobsDone != uint64(k*jobsPerClient) {
		t.Errorf("jobs_done = %d, want %d", stats.JobsDone, k*jobsPerClient)
	}
	if stats.MemoHits == 0 || stats.JobsCached == 0 {
		t.Errorf("no memoization under duplicate load: hits=%d cached=%d", stats.MemoHits, stats.JobsCached)
	}

	// HTTP result == CLI stdout, byte for byte.
	for si, args := range cliEquiv {
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("CLI run %v: %v", args, err)
		}
		if !bytes.Equal(out, bodies[si][0]) {
			t.Errorf("spec %d: HTTP result differs from CLI stdout (%d vs %d bytes)", si, len(bodies[si][0]), len(out))
		}
	}

	// Graceful drain: accept a last batch — including a never-seen spec
	// that must actually simulate during the drain — then SIGTERM.
	drainIDs := []string{}
	drainSpecs := append(specs[:2:2], `{"workload":"em3d","nodes":8,"scale":4,"iters":16}`)
	for _, sp := range drainSpecs {
		id, err := submitHTTP(base, "drain-client", sp)
		if err != nil {
			t.Fatalf("drain-batch submit: %v", err)
		}
		drainIDs = append(drainIDs, id)
	}
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- srv.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("server exit after SIGTERM: %v (want clean exit 0)", err)
		}
	case <-time.After(120 * time.Second):
		t.Fatal("server did not exit within 120s of SIGTERM")
	}
	<-logDone

	// No dropped in-flight jobs: every accepted job must appear in the
	// log with a terminal "done" line, and the drain must have completed.
	logData, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	logText := string(logData)
	if !strings.Contains(logText, "serve: drained") {
		t.Error("server log lacks the drain-completed line")
	}
	for _, id := range drainIDs {
		marker := "job " + id + " ("
		line := ""
		for _, l := range strings.Split(logText, "\n") {
			if strings.Contains(l, marker) {
				line = l
			}
		}
		if !strings.Contains(line, " done ") {
			t.Errorf("job %s accepted before SIGTERM did not finish: %q", id, line)
		}
	}
}

func submitHTTP(base, tenant, spec string) (string, error) {
	req, err := http.NewRequest("POST", base+"/v1/jobs", strings.NewReader(spec))
	if err != nil {
		return "", err
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	payload, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit: %s: %s", resp.Status, payload)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(payload, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// runJobHTTP submits a spec, waits for the terminal state, and returns
// the result body.
func runJobHTTP(base, tenant, spec string) ([]byte, error) {
	id, err := submitHTTP(base, tenant, spec)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := getJSON(base+"/v1/jobs/"+id, &st); err != nil {
			return nil, err
		}
		switch st.State {
		case "done":
			resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
			if err != nil {
				return nil, err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("result: %s", resp.Status)
			}
			return io.ReadAll(resp.Body)
		case "failed", "cancelled":
			return nil, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s after 120s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, payload)
	}
	return json.Unmarshal(payload, v)
}
