// Command pccperf judges a change against its parent commit from paired
// perfbench runs (`make bench-compare BASE=<rev>` makes them):
//
//	pccperf PARENT_DIR CHANGE_DIR
//
// Each directory holds one file per run, <workload>.<n>.out, whose last
// line is perfbench's JSON result. BENCHMARK.json in the working
// directory names the workloads, end-to-end metrics and bounds. Per
// workload and metric the verdict is unresolved when the parent's own
// spread (interquartile range ÷ median) exceeds the bound, FAIL when the
// change's median is worse than the parent's by more than the bound, and
// ok otherwise. A workload also fails when a side has no runs, when any
// run reports correct: false, or when the change fails a larger share of
// its attempted operations. Runs with the same <n> on both sides form a
// pair; per metric the report also says in how many pairs the change was
// better and gives the median change/parent ratio over the pairs, noting
// "too few pairs" under 10. Pairs inform the reader; they decide no
// verdict. Exit status: 1 on a failed check, 2 on unreadable input.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: pccperf PARENT_DIR CHANGE_DIR")
		os.Exit(2)
	}
	sp, parent, change, err := load("BENCHMARK.json", os.Args[1], os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "pccperf:", err)
		os.Exit(2)
	}
	if !report(os.Stdout, compare(sp, parent, change)) {
		os.Exit(1)
	}
}

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// run is perfbench's final JSON line, and the <n> of its file name.
type run struct {
	pair      string
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// load reads the spec and every run of both sides, by workload.
func load(specPath, parentDir, changeDir string) (*spec, map[string][]run, map[string][]run, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, nil, nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", specPath, err)
	}
	for _, m := range sp.EndToEnd {
		if (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 {
			return nil, nil, nil, fmt.Errorf("%s: metric %q needs better lower|higher and a positive bound", specPath, m.Name)
		}
	}
	sides := [2]map[string][]run{{}, {}}
	for i, dir := range []string{parentDir, changeDir} {
		for _, w := range sp.Workloads {
			files, err := filepath.Glob(filepath.Join(dir, w.Name+".*.out"))
			if err != nil {
				return nil, nil, nil, err
			}
			for _, f := range files {
				out, err := os.ReadFile(f)
				if err != nil {
					return nil, nil, nil, err
				}
				r := run{pair: strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), w.Name+"."), ".out")}
				out = bytes.TrimSpace(out)
				if err := json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &r); err != nil {
					return nil, nil, nil, fmt.Errorf("%s: last line: %w", f, err)
				}
				sides[i][w.Name] = append(sides[i][w.Name], r)
			}
		}
	}
	return &sp, sides[0], sides[1], nil
}

// verdict is the outcome of one check on one workload: status is ok,
// unresolved or FAIL.
type verdict struct {
	workload, check, status, detail string
}

// compare applies the rules in the package comment to every workload.
func compare(sp *spec, parent, change map[string][]run) []verdict {
	var vs []verdict
	for _, w := range sp.Workloads {
		add := func(check string, fail bool, detail string) {
			status := "ok"
			if fail {
				status = "FAIL"
			}
			vs = append(vs, verdict{w.Name, check, status, detail})
		}
		p, c := parent[w.Name], change[w.Name]
		if len(p) == 0 || len(c) == 0 {
			add("runs", true, fmt.Sprintf("%d parent runs, %d change runs", len(p), len(c)))
			continue
		}
		pbad, pshare := tally(p)
		cbad, cshare := tally(c)
		add("correct", pbad+cbad > 0, fmt.Sprintf("%d of %d runs report correct: false", pbad+cbad, len(p)+len(c)))
		add("failed", cshare > pshare, fmt.Sprintf("change fails %.4f of operations, parent %.4f", cshare, pshare))
		for _, m := range sp.EndToEnd {
			pv, pok := values(p, m.Name)
			cv, cok := values(c, m.Name)
			if !pok || !cok {
				add(m.Name, true, "metric missing or not positive in a run")
				continue
			}
			pmed, cmed := quantile(pv, 0.5), quantile(cv, 0.5)
			worse := (cmed - pmed) / pmed // a rise is worse for lower-is-better
			if m.Better == "higher" {
				worse = -worse
			}
			spread := (quantile(pv, 0.75) - quantile(pv, 0.25)) / pmed
			detail := fmt.Sprintf("parent %.4g, change %.4g, worse by %+.1f%%, parent spread %.1f%%, bound %.0f%%; %s",
				pmed, cmed, 100*worse, 100*spread, 100*m.Bound, pairs(p, c, m.Name, m.Better == "higher"))
			if spread > m.Bound {
				vs = append(vs, verdict{w.Name, m.Name, "unresolved", detail})
				continue
			}
			add(m.Name, worse > m.Bound, detail)
		}
	}
	return vs
}

// tally counts a side's runs that report correct: false and its share of
// failed operations over all attempted. A run that attempted nothing
// reports correct: false, so the share need not account for it.
func tally(rs []run) (incorrect int, failShare float64) {
	var failed, attempted int
	for _, r := range rs {
		if !r.Correct {
			incorrect++
		}
		failed += r.Failed
		attempted += r.Attempted
	}
	return incorrect, float64(failed) / math.Max(1, float64(attempted))
}

// values collects one metric from every run, sorted; it reports false if
// a run lacks the metric or holds a value no ratio can be taken over.
func values(rs []run, name string) ([]float64, bool) {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		m, ok := r.Metrics[name]
		if !ok || m.Value <= 0 {
			return nil, false
		}
		vs[i] = m.Value
	}
	sort.Float64s(vs)
	return vs, true
}

// minPairs is the pair count below which pairs reads "too few pairs".
const minPairs = 10

// pairs summarizes the runs of p and c that share their <n> on metric
// name: in how many the change was better, and the median change/parent
// ratio. values has vetted every value as positive.
func pairs(p, c []run, name string, higher bool) string {
	parent := map[string]float64{}
	for _, r := range p {
		parent[r.pair] = r.Metrics[name].Value
	}
	var ratios []float64
	better := 0
	for _, r := range c {
		pv, ok := parent[r.pair]
		if !ok {
			continue
		}
		cv := r.Metrics[name].Value
		if (cv < pv) != higher && cv != pv {
			better++
		}
		ratios = append(ratios, cv/pv)
	}
	if len(ratios) == 0 {
		return "no pairs"
	}
	sort.Float64s(ratios)
	out := fmt.Sprintf("change better in %d of %d pairs, median pair ratio %.3f", better, len(ratios), quantile(ratios, 0.5))
	if len(ratios) < minPairs {
		out += " (too few pairs)"
	}
	return out
}

// quantile interpolates linearly between the closest ranks of sorted vs.
func quantile(vs []float64, q float64) float64 {
	pos := q * float64(len(vs)-1)
	i := int(pos)
	if i+1 >= len(vs) {
		return vs[len(vs)-1]
	}
	return vs[i] + (pos-float64(i))*(vs[i+1]-vs[i])
}

// report prints every verdict and a summary line; it returns false when
// any check failed.
func report(w io.Writer, vs []verdict) bool {
	counts := map[string]int{}
	for _, v := range vs {
		counts[v.status]++
		fmt.Fprintf(w, "%-16s %-11s %-10s %s\n", v.workload, v.check, v.status, v.detail)
	}
	fmt.Fprintf(w, "pccperf: %d checks: %d ok, %d unresolved, %d FAIL\n",
		len(vs), counts["ok"], counts["unresolved"], counts["FAIL"])
	return counts["FAIL"] == 0
}
