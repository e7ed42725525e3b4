package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"pccsim/internal/core"
	"pccsim/internal/harness"
	"pccsim/internal/protocol"
	"pccsim/internal/runner"
	"pccsim/internal/workload"
)

// ProtocolReport is the schema of BENCH_pr10.json: the per-protocol
// simulation cost record. Every registered protocol runs the same
// workload on its bake-off configuration (harness.CompareConfig), and the record keeps each protocol's
// per-event simulation cost. The adaptive row is the paper protocol
// running through the plugin dispatch — comparing its ns/event against
// the committed baseline is the gate that keeps the Protocol interface
// indirection out of the hot path.
type ProtocolReport struct {
	Workload  string         `json:"workload"`
	Nodes     int            `json:"nodes"`
	GoVersion string         `json:"go_version"`
	CPUs      int            `json:"cpus"`
	Timestamp string         `json:"timestamp"`
	Cells     []ProtocolCell `json:"cells"`
}

// ProtocolCell is one protocol's measurement.
type ProtocolCell struct {
	Protocol     string  `json:"protocol"`
	Cycles       uint64  `json:"cycles"`
	Events       uint64  `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	NsPerEvent   float64 `json:"ns_per_event"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// protocolBenchWorkload is the measured application: em3d is the
// clearest producer-consumer pattern, so every protocol's special
// machinery (delegation, pushed updates, self-invalidation) is actually
// on the measured path.
const protocolBenchWorkload = "em3d"

// RunProtocolBench measures every registered protocol's simulation cost
// on one workload. Cells run sequentially on a single worker so the
// wall-clock numbers are not fighting each other for cores.
func RunProtocolBench(log io.Writer) (*ProtocolReport, error) {
	if log == nil {
		log = io.Discard
	}
	wl, err := workload.Lookup(protocolBenchWorkload)
	if err != nil {
		return nil, err
	}
	base := core.DefaultConfig()
	rep := &ProtocolReport{
		Workload:  protocolBenchWorkload,
		Nodes:     base.Nodes,
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	// Scale 8 pushes each cell to ~1M events so the wall clock is
	// measuring the simulation loop, not scheduler jitter.
	params := workload.Params{Nodes: base.Nodes, Scale: 8}
	for _, p := range protocol.All() {
		cell := ProtocolCell{Protocol: p.Name()}
		r := runner.New(1, func(ev runner.Event) {
			if ev.Done && ev.Err == nil && !ev.Cached {
				cell.Events = ev.Events
				cell.WallSeconds = ev.Wall.Seconds()
			}
		})
		res, err := r.Run([]runner.Job{{
			Label:    "protobench/" + p.Name(),
			Cfg:      harness.CompareConfig(base, p),
			Workload: wl,
			Params:   params,
		}})
		if err != nil {
			return nil, fmt.Errorf("protocol %s: %w", p.Name(), err)
		}
		cell.Cycles = res[0].ExecCycles
		if cell.Events > 0 && cell.WallSeconds > 0 {
			cell.NsPerEvent = cell.WallSeconds * 1e9 / float64(cell.Events)
			cell.EventsPerSec = float64(cell.Events) / cell.WallSeconds
		}
		fmt.Fprintf(log, "pccperf: protocol %-10s %8d events in %-10v %7.1f ns/event\n",
			p.Name(), cell.Events, time.Duration(cell.WallSeconds*float64(time.Second)).Round(time.Millisecond),
			cell.NsPerEvent)
		rep.Cells = append(rep.Cells, cell)
	}
	return rep, nil
}

// CheckProtocols is the protocol-dispatch gate for bench-smoke: a fresh
// per-protocol run against the committed BENCH_pr10.json. Event counts
// MUST match the baseline exactly (the simulation is deterministic — a
// drift means a protocol's behaviour changed without the golden CSVs
// catching it), and each protocol's ns/event must stay within the
// tolerance factor. A registered protocol missing from the baseline
// fails, so adding a protocol forces refreshing the record.
func CheckProtocols(path string, tol float64, log io.Writer) bool {
	if log == nil {
		log = io.Discard
	}
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(log, "pccperf:", err)
		return false
	}
	var base ProtocolReport
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(log, "pccperf: %s: %v\n", path, err)
		return false
	}
	baseCell := func(name string) *ProtocolCell {
		for i := range base.Cells {
			if base.Cells[i].Protocol == name {
				return &base.Cells[i]
			}
		}
		return nil
	}

	rep, err := RunProtocolBench(log)
	if err != nil {
		fmt.Fprintln(log, "pccperf:", err)
		return false
	}
	ok := true
	for _, c := range rep.Cells {
		want := baseCell(c.Protocol)
		if want == nil {
			fmt.Fprintf(log, "pccperf: check %-16s FAIL: protocol missing from %s — refresh the baseline (make bench)\n",
				c.Protocol, path)
			ok = false
			continue
		}
		if want.Events != 0 && c.Events != want.Events {
			fmt.Fprintf(log, "pccperf: check %-16s FAIL: %d events vs baseline %d — protocol behaviour drifted\n",
				c.Protocol, c.Events, want.Events)
			ok = false
		}
		if want.NsPerEvent > 0 && c.NsPerEvent > want.NsPerEvent*tol {
			fmt.Fprintf(log, "pccperf: check %-16s FAIL: %.1f ns/event vs baseline %.1f (> %.1fx)\n",
				c.Protocol, c.NsPerEvent, want.NsPerEvent, tol)
			ok = false
		} else {
			fmt.Fprintf(log, "pccperf: check %-16s ok: %.1f ns/event vs baseline %.1f\n",
				c.Protocol, c.NsPerEvent, want.NsPerEvent)
		}
	}
	if ok {
		fmt.Fprintf(log, "pccperf: check-protocols OK against %s (tolerance %.1fx)\n", path, tol)
	}
	return ok
}
