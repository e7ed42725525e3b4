package harness

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"pccsim/internal/core"
	"pccsim/internal/protocol"
	"pccsim/internal/runner"
	"pccsim/internal/workload"
)

// TestExperimentsPrintAndWriteCSV walks the experiment list at tiny
// options on one session: every entry prints its titled table, and every
// entry with a CSV writer writes a header row.
func TestExperimentsPrintAndWriteCSV(t *testing.T) {
	s := NewSession(tiny())
	seen := make(map[string]bool)
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			if e.Name == "" || e.Name == "all" || seen[e.Name] {
				t.Fatalf("experiment name %q is empty, reserved or duplicated", e.Name)
			}
			seen[e.Name] = true
			if got, ok := LookupExperiment(e.Name); !ok || got.Title != e.Title {
				t.Fatalf("LookupExperiment(%q) = %q, %v", e.Name, got.Title, ok)
			}

			var table bytes.Buffer
			if err := e.WriteTable(&table, s); err != nil {
				t.Fatal(err)
			}
			out := table.String()
			if !strings.HasPrefix(out, "== "+e.Title+" ==\n") || !strings.HasSuffix(out, "\n\n") ||
				strings.Count(out, "\n") < 4 {
				t.Fatalf("table output is not a titled table:\n%s", out)
			}

			var buf bytes.Buffer
			err := e.WriteCSV(&buf, s)
			if !e.HasCSV() {
				if err == nil || buf.Len() != 0 {
					t.Fatalf("CSV-less experiment wrote %d bytes, err %v", buf.Len(), err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			recs, err := csv.NewReader(&buf).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) < 2 || len(recs[0]) < 2 {
				t.Fatalf("CSV has no header row and data: %v", recs)
			}
		})
	}
	if _, ok := LookupExperiment("fig99"); ok {
		t.Fatal("LookupExperiment found an unknown name")
	}
}

// TestRelatedIsAViewOverCompareAndAblation pins that the related-work
// table schedules nothing of its own: once the bake-off and the ablation
// have run, it adds no cells.
func TestRelatedIsAViewOverCompareAndAblation(t *testing.T) {
	s := NewSession(tiny())
	cmp, err := s.Compare()
	if err != nil {
		t.Fatal(err)
	}
	abl, err := s.Ablation()
	if err != nil {
		t.Fatal(err)
	}
	cells := s.Cells()
	rows, err := s.RelatedWork()
	if err != nil {
		t.Fatal(err)
	}
	if s.Cells() != cells {
		t.Fatalf("related simulated %d cells of its own", s.Cells()-cells)
	}
	if len(rows) != len(abl) || len(cmp) != len(abl)*len(protocol.All()) {
		t.Fatalf("%d related rows from %d ablation and %d compare rows", len(rows), len(abl), len(cmp))
	}
	for i, r := range rows {
		if r.App != abl[i].App || r.DelegOnly != abl[i].DelegSpeedup || r.DelegUpd != abl[i].FullSpeedup {
			t.Errorf("%s: related row %+v does not carry the ablation row %+v", r.App, r, abl[i])
		}
	}
}

// TestRelatedViewPremiseMesiIsBase pins the premise the related-work
// view rests on: on every workload the bake-off's mesi cell simulates
// exactly like the protocol-less base machine, so its 3-hop count is the
// base's. If this ever fails, the related numbers would change; the view
// must then take its baseline counts from a base cell instead.
func TestRelatedViewPremiseMesiIsBase(t *testing.T) {
	s := NewSession(Options{Nodes: 16, Scale: 1})
	base := core.DefaultConfig()
	base.Nodes = s.Opts.Nodes
	mesi, err := protocol.Lookup(CompareBaseline)
	if err != nil {
		t.Fatal(err)
	}
	apps := workload.All()
	var jobs []runner.Job
	for _, wl := range apps {
		jobs = append(jobs,
			s.Opts.job("premise/"+wl.Name+"/base", base, wl),
			s.Opts.job("premise/"+wl.Name+"/mesi", CompareConfig(base, mesi), wl))
	}
	res, err := s.run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cells() != len(jobs) {
		t.Fatalf("base and mesi share a memo entry (%d cells for %d jobs); the check compares nothing", s.Cells(), len(jobs))
	}
	for i, wl := range apps {
		var b, m bytes.Buffer
		res[2*i].Dump(&b)
		res[2*i+1].Dump(&m)
		if b.String() != m.String() {
			t.Errorf("%s: mesi stats differ from the base machine's (%d vs %d cycles)",
				wl.Name, res[2*i+1].ExecCycles, res[2*i].ExecCycles)
		}
	}
}
