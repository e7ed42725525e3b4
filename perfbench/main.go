// Command perfbench is pccsim's benchmark. It runs one workload as a
// closed loop with one client for a fixed time: each operation builds
// fresh state (a new machine whose caches start cold, or a new model
// checker) and runs it to completion, and the output of every operation is
// checked. The untraced run prints the end-to-end metrics; the traced run
// (-trace 1) prints the per-layer metrics as a depth-limited tree plus a
// CPU profile bucketed by package. Either way the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"wall_s": {"value": 1.19, "unit": "s"}, ...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload adaptive-barnes --seed 1 --seconds 20 --trace 0
//
// The workloads, the metrics and the layer each metric belongs to are
// described in perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// goldenPath is the bake-off's reference output, relative to the
// repository root the benchmark runs from.
const goldenPath = "testdata/compare.golden.csv"

func main() {
	runtime.GOMAXPROCS(runtime.NumCPU())
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, measures, and prints the report; it
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 0, "workload seed (0 = each generator's fixed default seed)")
	seconds := fs.Float64("seconds", 10, "how long to run operations; at least one always runs")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s) and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	env, err := newEnv(w, *seed, goldenPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	var res *result
	if *trace == 1 {
		res = traceRun(w, env, *seconds, stdout)
	} else {
		res = measure(w, env, *seconds, stdout)
	}
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "perfbench: FAIL:", e)
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports.
type result struct {
	attempted, failed int
	errs              []error
	metrics           map[string]metric
}

func (r *result) fail(err error) {
	r.failed++
	r.errs = append(r.errs, err)
}

// writeResult prints the final JSON line.
func writeResult(w io.Writer, r *result) error {
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// hostFacts are recorded with every run: the parallelism the numbers were
// measured with and the inputs that produced them.
type hostFacts struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
}

func hostOf(w *benchWorkload, seed int64, trace bool) hostFacts {
	return hostFacts{
		Workload: w.name, Seed: seed, Trace: trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: w.workers, GoVersion: runtime.Version(),
	}
}

// writeRecord prints the run's record line: host facts plus every
// metric, including the ones the final JSON line leaves out.
func writeRecord(w io.Writer, host hostFacts, res *result, extra map[string]metric) {
	all := make(map[string]metric, len(res.metrics)+len(extra))
	for k, v := range res.metrics {
		all[k] = v
	}
	for k, v := range extra {
		all[k] = v
	}
	line, _ := json.Marshal(struct {
		Host      hostFacts         `json:"host"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{host, res.attempted, res.failed, all})
	fmt.Fprintf(w, "record %s\n", line)
}

// printMetrics prints metrics one per line, sorted by name.
func printMetrics(w io.Writer, indent string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s%-34s %14.6g %s\n", indent, k, ms[k].Value, ms[k].Unit)
	}
}
