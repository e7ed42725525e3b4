package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pccsim/internal/cli"
	"pccsim/internal/fault"
)

// submitMain implements `pccsim submit`, the thin HTTP client the nightly
// workflow (and anyone else) uses to run simulations through a `pccsim
// serve` instance: post a job spec, optionally wait on its event stream
// for the terminal state, and write the result body to stdout or a file.
// Exit codes: 0 on success, 1 when the job fails, is cancelled, or a fuzz
// result reports ok=false, 2 on usage or transport errors.
func submitMain(args []string) int {
	fs := flag.NewFlagSet("pccsim submit", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:8344", "base URL of a pccsim serve instance")
	tenant := fs.String("tenant", "", "tenant name sent as the X-Tenant header")
	spec := fs.String("spec", "", "job spec JSON file (- = stdin)")
	inline := fs.String("json", "", "job spec JSON given inline (alternative to -spec)")
	wait := fs.Bool("wait", true, "follow the job's event stream until it is terminal and fetch its result")
	timeout := fs.Duration("timeout", 0, "overall wait budget (0 = no limit)")
	out := fs.String("o", "-", "result destination (- = stdout)")
	reproDir := fs.String("repro-dir", "", "write shrunk fuzz-failure cases into this directory as replayable corpus files")
	progress := fs.Bool("progress", false, "log job state transitions to stderr while waiting")
	if err := cli.Parse(fs, args); err != nil {
		fmt.Fprintln(os.Stderr, "pccsim submit:", err)
		return 2
	}

	body, err := specBody(*spec, *inline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccsim submit:", err)
		return 2
	}
	base := strings.TrimRight(*server, "/")

	req, err := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccsim submit:", err)
		return 2
	}
	req.Header.Set("Content-Type", "application/json")
	if *tenant != "" {
		req.Header.Set("X-Tenant", *tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccsim submit:", err)
		return 2
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		fmt.Fprintf(os.Stderr, "pccsim submit: server rejected job: %s: %s\n", resp.Status, strings.TrimSpace(string(payload)))
		return 1
	}
	var st jobStatus
	if err := json.Unmarshal(payload, &st); err != nil {
		fmt.Fprintf(os.Stderr, "pccsim submit: bad submit response: %v\n", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "pccsim submit: job %s (%s) accepted\n", st.ID, st.Kind)
	if !*wait {
		fmt.Println(st.ID)
		return 0
	}

	st, err = followTerminal(base, st.ID, *timeout, *progress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccsim submit:", err)
		return 2
	}
	switch st.State {
	case "failed":
		fmt.Fprintf(os.Stderr, "pccsim submit: job %s failed: %s\n", st.ID, st.Error)
		return 1
	case "cancelled":
		fmt.Fprintf(os.Stderr, "pccsim submit: job %s was cancelled\n", st.ID)
		return 1
	}

	result, ctype, err := fetchResult(base, st.ID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccsim submit:", err)
		return 2
	}
	if err := writeResult(*out, result); err != nil {
		fmt.Fprintln(os.Stderr, "pccsim submit:", err)
		return 2
	}
	return verdict(result, ctype, *reproDir)
}

// jobStatus mirrors the server's Status wire format; only the fields the
// client acts on are decoded.
type jobStatus struct {
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	State     string `json:"state"`
	Cached    bool   `json:"cached"`
	Error     string `json:"error"`
	ObsEvents uint64 `json:"obs_events"`
	SimTime   uint64 `json:"sim_time"`
}

func specBody(path, inline string) ([]byte, error) {
	switch {
	case path != "" && inline != "":
		return nil, fmt.Errorf("-spec and -json are mutually exclusive")
	case inline != "":
		return []byte(inline), nil
	case path == "-":
		return io.ReadAll(os.Stdin)
	case path != "":
		return os.ReadFile(path)
	}
	return nil, fmt.Errorf("a job spec is required: -spec FILE or -json '{...}'")
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// followTerminal waits on the server's SSE stream (GET
// /v1/jobs/{id}/events): the server pushes a `progress` event on every
// status change and one final `done` event when the job is terminal. The
// stream closing before a `done` event is an error unless the last
// status seen was already terminal.
func followTerminal(base, id string, timeout time.Duration, progress bool) (jobStatus, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return jobStatus{}, err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		payload, _ := io.ReadAll(resp.Body)
		return jobStatus{}, fmt.Errorf("event stream: %s: %s", resp.Status, strings.TrimSpace(string(payload)))
	}

	var last jobStatus
	event, data := "", ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "" && data != "": // blank line = dispatch
			var st jobStatus
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return last, fmt.Errorf("bad event payload: %v", err)
			}
			if progress && st != last {
				fmt.Fprintf(os.Stderr, "pccsim submit: job %s %s (events=%d simtime=%d)\n", st.ID, st.State, st.ObsEvents, st.SimTime)
			}
			last = st
			if event == "done" {
				return st, nil
			}
			event, data = "", ""
		}
	}
	if ctx.Err() != nil {
		return last, fmt.Errorf("job %s still %s after %s", id, last.State, timeout)
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	if terminal(last.State) {
		return last, nil
	}
	return last, fmt.Errorf("event stream for job %s closed while %s", id, last.State)
}

func fetchResult(base, id string) ([]byte, string, error) {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("result fetch: %s: %s", resp.Status, strings.TrimSpace(string(payload)))
	}
	return payload, resp.Header.Get("Content-Type"), nil
}

func writeResult(path string, body []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(body)
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// verdict inspects JSON results that carry their own pass/fail bit (fuzz
// campaigns): the job completes as "done" either way, so
// the verdict lives in the body. Fuzz failures are optionally written out
// as replayable corpus files for `pccfuzz -replay`.
func verdict(body []byte, ctype, reproDir string) int {
	if !strings.HasPrefix(ctype, "application/json") {
		return 0
	}
	var res struct {
		Ok       *bool `json:"ok"`
		Failures []struct {
			Seed    int64      `json:"seed"`
			Failure string     `json:"failure"`
			Shrunk  fault.Case `json:"shrunk"`
		} `json:"failures"`
	}
	if err := json.Unmarshal(body, &res); err != nil || res.Ok == nil {
		return 0
	}
	if reproDir != "" {
		for _, f := range res.Failures {
			path := filepath.Join(reproDir, fmt.Sprintf("seed-%d.json", f.Seed))
			if err := fault.WriteCase(path, f.Shrunk); err != nil {
				fmt.Fprintf(os.Stderr, "pccsim submit: writing repro %s: %v\n", path, err)
			} else {
				fmt.Fprintf(os.Stderr, "pccsim submit: wrote repro %s (%s)\n", path, f.Failure)
			}
		}
	}
	if !*res.Ok {
		fmt.Fprintf(os.Stderr, "pccsim submit: job completed but reported ok=false (%d failures)\n", len(res.Failures))
		return 1
	}
	return 0
}
