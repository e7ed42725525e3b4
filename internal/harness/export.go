package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"pccsim/internal/workload"
)

// Exportable experiment results: every experiment's rows can be written as
// CSV (for plotting the figures) or JSON (for downstream tooling).

// writeCSV writes header and then rec(r) for each row. A write error is
// sticky in the csv.Writer, so the one check after Flush reports it.
func writeCSV[R any](w io.Writer, header []string, rows []R, rec func(R) []string) error {
	cw := csv.NewWriter(w)
	_ = cw.Write(header)
	for _, r := range rows {
		_ = cw.Write(rec(r))
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig7CSV renders Figure 7's rows.
func WriteFig7CSV(w io.Writer, rows []Row) error {
	return writeCSV(w, []string{"app", "config", "cycles", "speedup",
		"messages", "msg_ratio", "remote_misses", "miss_ratio",
		"update_accuracy", "delegations", "undelegations", "nacks"}, rows, func(r Row) []string {
		return []string{r.App, r.Config, u(r.Cycles), f(r.Speedup), u(r.Messages), f(r.MsgRatio),
			u(r.RemoteMisses), f(r.MissRatio), f(r.UpdateAcc), u(r.Delegs), u(r.Undelegs), u(r.NackCount)}
	})
}

// WriteSweepCSV renders a Figure 11/12 sweep.
func WriteSweepCSV(w io.Writer, rows []SweepRow) error {
	return writeCSV(w, []string{"config", "cycles", "messages", "speedup",
		"msg_ratio", "undelegations", "update_accuracy"}, rows, func(r SweepRow) []string {
		return []string{r.Config, u(r.Cycles), u(r.Messages), f(r.Speedup), f(r.MsgRatio),
			u(r.Undelegs), f(r.UpdAcc)}
	})
}

// WriteFig8CSV renders the equal-silicon-area comparison.
func WriteFig8CSV(w io.Writer, rows []Fig8Row) error {
	return writeCSV(w, []string{"app", "config", "cycles", "speedup"}, rows, func(r Fig8Row) []string {
		return []string{r.App, r.Config, u(r.Cycles), f(r.Speedup)}
	})
}

// WriteTable3CSV renders the consumer-count distribution, rows in the
// paper's application order.
func WriteTable3CSV(w io.Writer, dist map[string][5]float64) error {
	var apps []string
	for _, wl := range workload.All() {
		if _, ok := dist[wl.Name]; ok {
			apps = append(apps, wl.Name)
		}
	}
	return writeCSV(w, []string{"app", "pct_1", "pct_2", "pct_3", "pct_4", "pct_4plus"}, apps, func(app string) []string {
		d := dist[app]
		return []string{app, f(d[0]), f(d[1]), f(d[2]), f(d[3]), f(d[4])}
	})
}

// WriteAblationCSV renders the §3.2 delegation-only comparison.
func WriteAblationCSV(w io.Writer, rows []AblationRow) error {
	return writeCSV(w, []string{"app", "base_cycles", "deleg_only_cycles",
		"deleg_upd_cycles", "deleg_speedup", "full_speedup"}, rows, func(r AblationRow) []string {
		return []string{r.App, u(r.BaseCycles), u(r.DelegOnly), u(r.DelegUpd), f(r.DelegSpeedup), f(r.FullSpeedup)}
	})
}

// WriteFig9CSV renders the intervention-delay sweep.
func WriteFig9CSV(w io.Writer, rows []Fig9Row) error {
	return writeCSV(w, []string{"app", "delay", "cycles", "normalized"}, rows, func(r Fig9Row) []string {
		return []string{r.App, r.Delay, u(r.Cycles), f(r.Normalized)}
	})
}

// WriteFig10CSV renders the hop-latency sweep.
func WriteFig10CSV(w io.Writer, rows []Fig10Row) error {
	return writeCSV(w, []string{"hop_ns", "base_cycles", "mech_cycles", "speedup"}, rows, func(r Fig10Row) []string {
		return []string{strconv.Itoa(r.HopNsec), u(r.BaseCycles), u(r.MechCycles), f(r.Speedup)}
	})
}

// Report bundles every experiment for one JSON document. The field order
// is the JSON key order; the experiments fill it through their Report
// entries in Experiments.
type Report struct {
	Options    Options               `json:"options"`
	Fig7       []Row                 `json:"fig7,omitempty"`
	Fig8       []Fig8Row             `json:"fig8,omitempty"`
	Fig9       []Fig9Row             `json:"fig9,omitempty"`
	Fig10      []Fig10Row            `json:"fig10,omitempty"`
	Fig11      []SweepRow            `json:"fig11,omitempty"`
	Fig12      []SweepRow            `json:"fig12,omitempty"`
	Table3     map[string][5]float64 `json:"table3,omitempty"`
	Ablation   []AblationRow         `json:"ablation,omitempty"`
	Extensions []ExtRow              `json:"extensions,omitempty"`
	Compare    []CompareRow          `json:"compare,omitempty"`
}

// RunAll executes every experiment with a Report field on one shared
// session — so cells that recur across figures (the Base configuration,
// the small and large mechanism configurations) simulate exactly once —
// and bundles the results. The report is deterministic: for fixed Options
// it is byte-identical as JSON no matter how many workers ran it.
func RunAll(opts Options) (*Report, error) {
	s := NewSession(opts)
	rep := &Report{Options: opts}
	for _, e := range experiments {
		if e.report == nil {
			continue
		}
		v, err := e.run(s)
		if err != nil {
			return nil, err
		}
		e.report(rep, v)
	}
	return rep, nil
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

func f(v float64) string { return fmt.Sprintf("%.4f", v) }

func u(v uint64) string { return strconv.FormatUint(v, 10) }
