package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pccsim"
	"pccsim/internal/harness"
	"pccsim/internal/runner"
)

// TestTraceEveryProtocol runs `pccsim trace` under every registered
// protocol with default mechanism flags: each is provisioned on its
// bake-off configuration, so none may fail validation.
func TestTraceEveryProtocol(t *testing.T) {
	dir := t.TempDir()
	for _, p := range pccsim.Protocols() {
		out := filepath.Join(dir, p+".json")
		args := []string{"-protocol", p, "-nodes", "4", "-iters", "1", "-out", out}
		if code := traceMain(args); code != 0 {
			t.Errorf("pccsim trace -protocol %s: exit %d, want 0", p, code)
			continue
		}
		if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
			t.Errorf("pccsim trace -protocol %s wrote no trace (%v)", p, err)
		}
	}
}

// TestNegativeSizesAreUsageErrors: a negative -scale or -iters would run
// as the default while the report names the negative value, so both the
// root command and trace reject it as a usage error before simulating.
func TestNegativeSizesAreUsageErrors(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.json")
	for _, c := range []struct {
		cmd  string
		main func([]string) int
		args []string
	}{
		{"pccsim", runMain, []string{"-nodes", "4", "-scale", "-1"}},
		{"pccsim trace", traceMain, []string{"-nodes", "4", "-iters", "-3", "-out", out}},
	} {
		if code := c.main(c.args); code != 2 {
			t.Errorf("%s %v: exit %d, want 2", c.cmd, c.args, code)
		}
	}
}

// TestTraceExplicitDelegationNeedsDelegatingProtocol keeps the explicit
// form strict: delegation sizing asked for under a protocol that does
// not delegate is a configuration error, not silently dropped.
func TestTraceExplicitDelegationNeedsDelegatingProtocol(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.json")
	for _, p := range []string{"mesi", "dsi", "hybrid"} {
		args := []string{"-protocol", p, "-rac-kb", "32", "-deledc", "32", "-nodes", "4", "-iters", "1", "-out", out}
		if code := traceMain(args); code != 1 {
			t.Errorf("pccsim trace -protocol %s -deledc 32: exit %d, want 1", p, code)
		}
	}
}

// TestRunFlagsMatchServeBody: a root command line and the equivalent
// serve run-job body fill the same harness.RunSpec, so both must resolve
// to the same cell, defaults included.
func TestRunFlagsMatchServeBody(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		body string
		want func(runner.Job) bool
	}{
		{"defaults", nil, `{}`, func(j runner.Job) bool {
			return j.Workload.Name == "em3d" && j.Cfg.Nodes == 16 && j.Params.Scale == 1 &&
				j.Cfg.Network.HopLatency == 100 && j.Cfg.InterventionDelay == 50
		}},
		{"zero sizes take the defaults", []string{"-workload", "", "-nodes", "0", "-scale", "0"},
			`{"workload":"","nodes":0,"scale":0}`, func(j runner.Job) bool {
				return j.Workload.Name == "em3d" && j.Params.Nodes == 16 && j.Params.Scale == 1
			}},
		{"hop 0 is a zero-latency network", []string{"-hop", "0"}, `{"hop":0}`, func(j runner.Job) bool {
			return j.Cfg.Network.HopLatency == 0
		}},
		{"delay 0 means 50", []string{"-delay", "0"}, `{"delay":0}`, func(j runner.Job) bool {
			return j.Cfg.InterventionDelay == 50
		}},
		{"explicit delay", []string{"-delay", "200"}, `{"delay":200}`, func(j runner.Job) bool {
			return j.Cfg.InterventionDelay == 200
		}},
		{"parallel shards", []string{"-nodes", "8", "-shards", "2"}, `{"nodes":8,"shards":2}`, func(j runner.Job) bool {
			return j.Cfg.Shards == 2 && j.Cfg.ShardsParallel
		}},
		{"deterministic shards", []string{"-nodes", "8", "-shards", "2", "-deterministic"},
			`{"nodes":8,"shards":2,"deterministic":true}`, func(j runner.Job) bool {
				return j.Cfg.Shards == 2 && !j.Cfg.ShardsParallel
			}},
		{"mechanisms", []string{"-rac", "32768", "-deledc", "32", "-updates", "-check"},
			`{"rac":32768,"deledc":32,"updates":true,"check":true}`, func(j runner.Job) bool {
				return j.Cfg.RACBytes == 32768 && j.Cfg.DelegateEntries == 32 && j.Cfg.EnableUpdates && j.Cfg.CheckInvariants
			}},
	} {
		fs := flag.NewFlagSet("pccsim", flag.ContinueOnError)
		sp := runFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fromFlags, err := sp.Cell()
		if err != nil {
			t.Fatalf("%s: flags: %v", c.name, err)
		}
		var body harness.RunSpec
		dec := json.NewDecoder(strings.NewReader(c.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&body); err != nil {
			t.Fatalf("%s: body: %v", c.name, err)
		}
		fromBody, err := body.Cell()
		if err != nil {
			t.Fatalf("%s: body: %v", c.name, err)
		}
		if !c.want(fromFlags) {
			t.Errorf("%s: cell %+v", c.name, fromFlags)
		}
		// Lookup builds a fresh Workload each time: compare it by name.
		if fromFlags.Workload.Name != fromBody.Workload.Name {
			t.Errorf("%s: workload %s vs %s", c.name, fromFlags.Workload.Name, fromBody.Workload.Name)
		}
		fromFlags.Workload, fromBody.Workload = nil, nil
		if !reflect.DeepEqual(fromFlags, fromBody) {
			t.Errorf("%s: flags give %+v, body gives %+v", c.name, fromFlags, fromBody)
		}
	}
}
