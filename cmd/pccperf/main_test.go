package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testSpec = `{
  "workloads": [{"name": "w"}],
  "end_to_end": [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "work_per_s", "better": "higher", "bound": 0.25}
  ]
}`

// line is one run's output as perfbench prints it: a human-readable
// metric line, then the JSON result line.
func line(correct bool, attempted, failed int, wall, work float64) string {
	return fmt.Sprintf("wall_s %g s\n{\"correct\": %v, \"attempted\": %d, \"failed\": %d, \"metrics\": {"+
		"\"wall_s\": {\"value\": %g, \"unit\": \"s\"}, \"work_per_s\": {\"value\": %g, \"unit\": \"1/s\"}}}\n",
		wall, correct, attempted, failed, wall, work)
}

// setup writes spec as BENCHMARK.json and each side's run outputs under
// the file names make bench-compare uses, next to a file of another
// workload, and returns the three paths load takes.
func setup(t *testing.T, spec string, parent, change []string) (string, string, string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("BENCHMARK.json", spec)
	for side, outs := range map[string][]string{"parent": parent, "change": change} {
		if err := os.Mkdir(filepath.Join(dir, side), 0o755); err != nil {
			t.Fatal(err)
		}
		write(side+"/other.1.out", "not a result")
		for i, out := range outs {
			write(fmt.Sprintf("%s/w.%d.out", side, i+1), out)
		}
	}
	return filepath.Join(dir, "BENCHMARK.json"), filepath.Join(dir, "parent"), filepath.Join(dir, "change")
}

func TestCompare(t *testing.T) {
	steady := []string{line(true, 10, 0, 1.00, 100), line(true, 10, 0, 1.02, 101), line(true, 10, 0, 0.98, 99)}
	for _, tc := range []struct {
		name   string
		parent []string
		change []string
		want   map[string]string // check -> status
		pass   bool
	}{
		{
			name:   "within bound",
			parent: steady,
			change: []string{line(true, 10, 0, 1.10, 95), line(true, 10, 0, 1.12, 94), line(true, 10, 0, 1.08, 96)},
			want:   map[string]string{"wall_s": "ok", "work_per_s": "ok", "correct": "ok", "failed": "ok"},
			pass:   true,
		},
		{
			name:   "wall regression beyond bound",
			parent: steady,
			change: []string{line(true, 10, 0, 1.40, 100), line(true, 10, 0, 1.30, 100), line(true, 10, 0, 1.35, 100)},
			want:   map[string]string{"wall_s": "FAIL", "work_per_s": "ok"},
		},
		{
			name:   "throughput regression beyond bound",
			parent: steady,
			change: []string{line(true, 10, 0, 1.00, 70), line(true, 10, 0, 1.00, 72), line(true, 10, 0, 1.00, 74)},
			want:   map[string]string{"wall_s": "ok", "work_per_s": "FAIL"},
		},
		{
			name:   "parent spread above bound",
			parent: []string{line(true, 10, 0, 0.60, 100), line(true, 10, 0, 1.00, 100), line(true, 10, 0, 1.60, 100)},
			change: []string{line(true, 10, 0, 1.60, 100), line(true, 10, 0, 1.70, 100), line(true, 10, 0, 1.50, 100)},
			want:   map[string]string{"wall_s": "unresolved", "work_per_s": "ok"},
			pass:   true,
		},
		{
			name:   "higher failure share",
			parent: steady,
			change: []string{line(true, 10, 0, 1.00, 100), line(false, 10, 1, 1.00, 100), line(true, 10, 0, 1.00, 100)},
			want:   map[string]string{"failed": "FAIL", "correct": "FAIL", "wall_s": "ok"},
		},
		{
			name:   "incorrect parent run",
			parent: []string{line(false, 10, 0, 1.00, 100), line(true, 10, 0, 1.00, 100), line(true, 10, 0, 1.00, 100)},
			change: steady,
			want:   map[string]string{"correct": "FAIL", "failed": "ok"},
		},
		{
			name:   "no change runs",
			parent: steady,
			want:   map[string]string{"runs": "FAIL"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp, parent, change, err := load(setup(t, testSpec, tc.parent, tc.change))
			if err != nil {
				t.Fatal(err)
			}
			vs := compare(sp, parent, change)
			got := map[string]string{}
			for _, v := range vs {
				got[v.check] = v.status
			}
			for check, want := range tc.want {
				if got[check] != want {
					t.Errorf("%s: got %q, want %q (verdicts %+v)", check, got[check], want, vs)
				}
			}
			var out strings.Builder
			if pass := report(&out, vs); pass != tc.pass {
				t.Errorf("report passed = %v, want %v:\n%s", pass, tc.pass, out.String())
			}
		})
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	good := []string{line(true, 10, 0, 1.00, 100)}
	for name, tc := range map[string]struct {
		spec   string
		change []string
	}{
		"empty run output":     {testSpec, []string{""}},
		"no result line":       {testSpec, []string{"wall_s 1 s\n"}},
		"metric without bound": {`{"workloads": [{"name": "w"}], "end_to_end": [{"name": "wall_s", "better": "lower"}]}`, good},
		"unknown direction":    {`{"workloads": [{"name": "w"}], "end_to_end": [{"name": "wall_s", "better": "up", "bound": 0.25}]}`, good},
	} {
		if _, _, _, err := load(setup(t, tc.spec, good, tc.change)); err == nil {
			t.Errorf("%s: load returned no error", name)
		}
	}
}
