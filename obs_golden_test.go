package pccsim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pccsim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestPerfettoGolden locks the exporter's output for the canonical
// producer-consumer program: field renames, track reshuffles, or event
// reordering all show up as a byte diff. The simulator is deterministic
// and the exporter sorts its output, so the file is stable.
// Regenerate with: go test -run PerfettoGolden -update .
func TestPerfettoGolden(t *testing.T) {
	cfg := pccsim.DefaultConfig().With(
		pccsim.WithRAC(32),
		pccsim.WithDelegation(32),
		pccsim.WithSpeculativeUpdates(0))
	cfg.Nodes = 4

	m, err := pccsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	es := m.Observe(-1)
	if _, err := m.Run(pcProgram(4, 6)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := es.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}

	// Whatever happens to the golden file, the output must stay valid
	// trace-event JSON.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter emits invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("exporter emitted no trace events")
	}

	golden := filepath.Join("testdata", "perfetto_pc.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Perfetto output differs from %s (%d vs %d bytes); rerun with -update and review the diff",
			golden, buf.Len(), len(want))
	}
}

// traceCfg is the delegation machine the Trace tests run on.
func traceCfg(shards int) pccsim.Config {
	cfg := pccsim.DefaultConfig().With(
		pccsim.WithRAC(32),
		pccsim.WithDelegation(32),
		pccsim.WithSpeculativeUpdates(0),
		pccsim.WithDeterministicShards(shards))
	cfg.Nodes = 4
	return cfg
}

// em3dProgram is a short em3d run on the 4-node trace machine.
func em3dProgram(t *testing.T) *pccsim.Program {
	t.Helper()
	prog, err := pccsim.BuildWorkload("em3d", pccsim.WorkloadParams{Nodes: 4, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestTraceDumpGolden pins Machine.Trace's plain-text views end to end —
// the timeline and the per-line stories, with the default and a wrapped
// ring, a line filter, an observer attached first, and a sharded machine.
// Regenerate with: go test -run TraceDumpGolden -update .
func TestTraceDumpGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range []struct {
		name     string
		capacity int
		line     pccsim.Addr
		shards   int
		observed bool
		em3d     bool
	}{
		{"pc all lines, default capacity", 0, 0, 0, false, false},
		{"pc sharded", 0, 0, 2, false, false},
		{"pc observed first", 0, 0, 0, true, false},
		{"em3d wrapped ring", 40, 0, 0, false, true},
		{"em3d one line", 0, 0x10000b80, 0, false, true},
		{"em3d sharded one line", 0, 0x10000b80, 2, true, true},
	} {
		m, err := pccsim.New(traceCfg(c.shards))
		if err != nil {
			t.Fatal(err)
		}
		if c.observed {
			m.Observe(16)
		}
		rec := m.Trace(c.capacity, c.line)
		prog := pcProgram(4, 6)
		if c.em3d {
			prog = em3dProgram(t)
		}
		if _, err := m.Run(prog); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "== %s: %d recorded ==\n", c.name, rec.Total())
		rec.Dump(&buf)
		fmt.Fprintln(&buf, "-- stories --")
		rec.DumpStories(&buf)
	}

	golden := filepath.Join("testdata", "trace_pc.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Trace output differs from %s (%d vs %d bytes); rerun with -update and review the diff",
			golden, buf.Len(), len(want))
	}
}

// traceDump runs the pc program on a fresh machine with a recorder and
// returns the recorder's timeline; observe attaches an observer before
// (-1) or after (+1) the recorder, or not at all (0).
func traceDump(t *testing.T, capacity int, line pccsim.Addr, observe int) (uint64, string) {
	t.Helper()
	m, err := pccsim.New(traceCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	if observe < 0 {
		m.Observe(16)
	}
	rec := m.Trace(capacity, line)
	var es *pccsim.EventStream
	if observe > 0 {
		es = m.Observe(16)
	}
	if _, err := m.Run(pcProgram(4, 6)); err != nil {
		t.Fatal(err)
	}
	if es != nil && es.Total() == 0 {
		t.Fatal("observer attached after the recorder saw no events")
	}
	var buf bytes.Buffer
	rec.Dump(&buf)
	return rec.Total(), buf.String()
}

// TestTraceRidesEventStream checks the recorder shares the machine's
// event stream with Observe in either order: both orders record exactly
// what a lone recorder records.
func TestTraceRidesEventStream(t *testing.T) {
	n, alone := traceDump(t, 0, 0, 0)
	if n == 0 {
		t.Fatal("recorder captured nothing")
	}
	for _, order := range []int{-1, +1} {
		if m, got := traceDump(t, 0, 0, order); m != n || got != alone {
			t.Errorf("observer order %+d: recorded %d messages, want %d (timelines equal: %v)",
				order, m, n, got == alone)
		}
	}
}

// TestTraceDefaultCapacity pins the capacity rule: <= 0 keeps the most
// recent 4096 messages.
func TestTraceDefaultCapacity(t *testing.T) {
	m, err := pccsim.New(traceCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	rec := m.Trace(-1, 0)
	if _, err := m.Run(pcProgram(4, 1000)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec.Dump(&buf)
	if rec.Total() <= 4096 {
		t.Fatalf("em3d recorded only %d messages; too few to wrap the default ring", rec.Total())
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 4096 {
		t.Fatalf("default capacity retained %d messages, want 4096", lines)
	}
}

// TestTraceLineFilter checks a non-zero line records only that line's
// messages: all of them, and nothing when the line is never touched.
func TestTraceLineFilter(t *testing.T) {
	const line = pccsim.Addr(0x4000)
	all, dump := traceDump(t, 0, 0, 0)
	one, lineDump := traceDump(t, 0, line, 0)
	if all == 0 || one == 0 {
		t.Fatalf("recorded %d (all lines) and %d (line %#x) messages", all, one, uint64(line))
	}
	for _, l := range strings.Split(strings.TrimSpace(lineDump), "\n") {
		if !strings.Contains(l, "line 0x4000") {
			t.Fatalf("line filter let through %q", l)
		}
	}
	if want := uint64(strings.Count(dump, "line 0x4000")); one != want {
		t.Fatalf("line filter recorded %d messages, want the %d of the unfiltered timeline", one, want)
	}
	if _, none := traceDump(t, 0, 0x8000, 0); none != "" {
		t.Fatalf("filter on an untouched line recorded:\n%s", none)
	}
}

// TestTraceLineZeroRecordsAll checks line 0 filters nothing: em3d touches
// many lines, and every message it sends is retained, whatever its line.
func TestTraceLineZeroRecordsAll(t *testing.T) {
	m, err := pccsim.New(traceCfg(0))
	if err != nil {
		t.Fatal(err)
	}
	rec := m.Trace(0, 0)
	if _, err := m.Run(em3dProgram(t)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rec.Dump(&buf)
	rows := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if rec.Total() == 0 || uint64(len(rows)) != rec.Total() {
		t.Fatalf("recorded %d messages but retained %d", rec.Total(), len(rows))
	}
	lines := map[string]bool{}
	for _, r := range rows {
		i := strings.Index(r, "line 0x")
		if i < 0 {
			t.Fatalf("timeline row without a line: %q", r)
		}
		lines[strings.Fields(r[i:])[1]] = true
	}
	if len(lines) < 2 {
		t.Fatalf("line 0 recorded only lines %v; em3d touches many", lines)
	}
}
