package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"pccsim/internal/mcheck"
)

// tinyWorkloads are the four workloads at sizes that run in well under a
// second each.
func tinyWorkloads() []*benchWorkload {
	return []*benchWorkload{
		{name: "adaptive-barnes", kind: machineOp, workers: 1, app: "barnes", nodes: 4, scale: 1},
		{name: "bakeoff", kind: bakeoffOp, workers: 1, app: "barnes", nodes: 4, scale: 1},
		{name: "wide-256", kind: machineOp, workers: 1, app: "em3d", nodes: 8, scale: 1, shards: 2},
		{name: "mcheck-deep", kind: mcheckOp, workers: 1, mcfg: tinyModel()},
	}
}

func tinyModel() mcheck.Config {
	return mcheck.Config{Nodes: 2, Lines: 1, MaxWrites: 2, QueueDepth: 2,
		Delegation: true, DetThresh: 1, MaxIssues: 2}
}

func TestEndToEndMetricsTiny(t *testing.T) {
	for _, w := range tinyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res := measure(w, &env{seed: 1}, 0, &out)
			if res.failed != 0 {
				t.Fatalf("%d of %d ops failed: %v", res.failed, res.attempted, res.errs)
			}
			if len(res.metrics) != len(endToEnd) {
				t.Errorf("got %d end-to-end metrics, want %d", len(res.metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := res.metrics[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %+v, want a positive value in %s", d.name, m, d.unit)
				}
			}
			if !strings.Contains(out.String(), `"nproc"`) || !strings.Contains(out.String(), `"seed":1`) {
				t.Errorf("record lacks host facts:\n%s", out.String())
			}
		})
	}
}

func TestPerLayerMetricsTiny(t *testing.T) {
	for _, w := range tinyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			res := traceRun(w, &env{seed: 1}, 0.5, io.Discard)
			if res.failed != 0 {
				t.Fatalf("%d of %d ops failed: %v", res.failed, res.attempted, res.errs)
			}
			if len(res.metrics) != len(perLayer) {
				t.Errorf("got %d per-layer metrics, want %d", len(res.metrics), len(perLayer))
			}
			shares := 0.0
			for _, d := range perLayer {
				m, ok := res.metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s = %+v, want unit %s", d.name, m, d.unit)
				}
				if strings.HasSuffix(d.name, ".self_share") {
					shares += m.Value
				}
			}
			// A tiny run may take no CPU sample at all.
			if shares != 0 && math.Abs(shares-1) > 0.01 {
				t.Errorf("self shares sum to %.4f, want 1", shares)
			}
		})
	}
}

func TestDigestFollowsSeed(t *testing.T) {
	w := tinyWorkloads()[0]
	digest := func(seed int64) string {
		r := w.op(&env{seed: seed}, nil)
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.digest
	}
	if a, b := digest(1), digest(1); a != b {
		t.Errorf("seed 1 gave digests %s and %s", a, b)
	}
	if a, b := digest(1), digest(2); a == b {
		t.Errorf("seeds 1 and 2 gave the same barnes digest %s", a)
	}
}

func TestBakeoffMatchesReference(t *testing.T) {
	w, _ := lookupWorkload("bakeoff")
	e, err := newEnv(w, 0, "../testdata/compare.golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	if r := w.op(e, nil); r.err != nil {
		t.Fatal(r.err)
	}
}

func TestPerturbedReferenceFails(t *testing.T) {
	w := tinyWorkloads()[1]
	r := w.op(&env{}, nil)
	if r.err != nil {
		t.Fatal(r.err)
	}
	golden := append([]byte(nil), r.output...)
	golden[len(golden)-2] ^= 1
	_, res := runOps(w, &env{golden: golden}, 0, nil, nil)
	assertFailed(t, w, res)
}

func TestStateCountMismatchFails(t *testing.T) {
	w := tinyWorkloads()[3]
	r := w.op(&env{}, nil)
	if r.err != nil {
		t.Fatal(r.err)
	}
	w.wantStates = int(r.work)
	if r := w.op(&env{}, nil); r.err != nil {
		t.Fatalf("exact state count rejected: %v", r.err)
	}
	w.wantStates++
	_, res := runOps(w, &env{}, 0, nil, nil)
	assertFailed(t, w, res)
}

func assertFailed(t *testing.T, w *benchWorkload, res *result) {
	t.Helper()
	if res.failed == 0 {
		t.Fatal("the output check passed a wrong output")
	}
	if got := simulatedMetrics(w, nil, res)["fail_ratio"].Value; got <= 0 {
		t.Errorf("fail_ratio = %v, want > 0", got)
	}
}

func TestParseCPUProfileLayers(t *testing.T) {
	stack := func(fns ...string) []frame {
		var out []frame
		for _, f := range fns {
			out = append(out, frame{fn: f, file: "/src/internal/mcheck/rules.go"})
		}
		return out
	}
	for _, c := range []struct {
		stack []frame
		want  string
	}{
		{stack("runtime.mapaccess2", "pccsim/internal/core.(*global).write", "main.runMachine"), "core"},
		{stack("runtime.memmove", "runtime.gcBgMarkWorker"), "gc"},
		{stack("pccsim/internal/mcheck.Successors"), "mcheck.rules"},
		{stack("pccsim/internal/fault.Run"), "other"},
		{stack("main.goid"), "bench"},
		{stack("runtime.futex"), "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code's metric lists in
// step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads %s, code has %s", got, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, code has %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, code has %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, d)
		}
	}
}
