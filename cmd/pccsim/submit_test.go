package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pccsim/internal/serve"
)

// testServer starts an in-process serve.Server behind httptest, its
// handler wrapped by wrap when non-nil, and drains it when the test ends.
func testServer(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	s := serve.New(serve.Config{Log: log.New(io.Discard, "", 0)})
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return ts
}

// postJob submits spec and returns the accepted job's status.
func postJob(t *testing.T, base, spec string) jobStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, payload)
	}
	var st jobStatus
	if err := json.Unmarshal(payload, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// captureStdout returns what fn writes to os.Stdout.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFollowTerminal runs submit's SSE consumer against a live
// in-process server: a real serve.Server behind httptest, streaming real
// progress/done events over HTTP. The stream must deliver the terminal
// status without any client-side polling.
func TestFollowTerminal(t *testing.T) {
	ts := testServer(t, nil)

	t.Run("done", func(t *testing.T) {
		st := postJob(t, ts.URL, `{"workload":"em3d","nodes":8,"scale":1,"iters":2}`)
		got, err := followTerminal(ts.URL, st.ID, 30*time.Second, false)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != "done" {
			t.Fatalf("followed job ended %q, want done: %+v", got.State, got)
		}
		if got.ID != st.ID {
			t.Fatalf("stream reported job %s, submitted %s", got.ID, st.ID)
		}
	})

	t.Run("cancelled", func(t *testing.T) {
		// A duplicate of a slow spec queued behind itself would be flaky;
		// instead cancel a fresh slow job and follow it — the stream's
		// done event must carry the cancelled state.
		st := postJob(t, ts.URL, `{"workload":"em3d","nodes":8,"scale":8,"iters":64}`)
		req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+st.ID, nil)
		if _, err := http.DefaultClient.Do(req); err != nil {
			t.Fatal(err)
		}
		got, err := followTerminal(ts.URL, st.ID, 30*time.Second, false)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != "cancelled" && got.State != "done" {
			t.Fatalf("cancelled job streamed terminal state %q", got.State)
		}
	})

	t.Run("unknown job", func(t *testing.T) {
		if _, err := followTerminal(ts.URL, "no-such-job", time.Second, false); err == nil {
			t.Fatal("following a nonexistent job did not error")
		}
	})
}

// TestSubmitMain drives `pccsim submit` end to end against a live
// server. A run job's -o file holds exactly the bytes the root command
// prints for the same run, and a job cancelled on the server makes
// submit exit 1.
func TestSubmitMain(t *testing.T) {
	// While cancelNext is set, the server cancels each job it accepts
	// before answering the submission, so the job is cancelled before
	// submit starts waiting on it.
	var cancelNext atomic.Bool
	ts := testServer(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != "POST" || !cancelNext.Load() {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var st jobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err == nil {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("DELETE", "/v1/jobs/"+st.ID, nil))
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
		})
	})

	t.Run("result matches runMain", func(t *testing.T) {
		var code int
		want := captureStdout(t, func() {
			code = runMain([]string{"-workload", "mg", "-nodes", "8", "-iters", "2",
				"-rac", "32768", "-deledc", "32", "-updates", "-shards", "2"})
		})
		if code != 0 {
			t.Fatalf("runMain: exit %d", code)
		}
		out := filepath.Join(t.TempDir(), "result.txt")
		body := `{"workload":"mg","nodes":8,"iters":2,"rac":32768,"deledc":32,"updates":true,"shards":2}`
		if code := submitMain([]string{"-server", ts.URL, "-json", body, "-o", out, "-timeout", "60s"}); code != 0 {
			t.Fatalf("submitMain: exit %d", code)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("submit wrote %d bytes that differ from runMain's %d:\n%s\nwant:\n%s", len(got), len(want), got, want)
		}
	})

	t.Run("cancelled job exits 1", func(t *testing.T) {
		cancelNext.Store(true)
		defer cancelNext.Store(false)
		out := filepath.Join(t.TempDir(), "result.txt")
		body := `{"workload":"em3d","nodes":8,"scale":8,"iters":64}`
		if code := submitMain([]string{"-server", ts.URL, "-json", body, "-o", out, "-timeout", "60s"}); code != 1 {
			t.Errorf("submitMain on a cancelled job: exit %d, want 1", code)
		}
		if _, err := os.Stat(out); err == nil {
			t.Error("submit wrote a result for a cancelled job")
		}
	})
}
