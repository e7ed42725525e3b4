package pccsim_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
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
