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

// WriteFig7CSV renders Figure 7's rows.
func WriteFig7CSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"app", "config", "cycles", "speedup",
		"messages", "msg_ratio", "remote_misses", "miss_ratio",
		"update_accuracy", "delegations", "undelegations", "nacks"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.App, r.Config,
			strconv.FormatUint(r.Cycles, 10),
			f(r.Speedup),
			strconv.FormatUint(r.Messages, 10),
			f(r.MsgRatio),
			strconv.FormatUint(r.RemoteMisses, 10),
			f(r.MissRatio),
			f(r.UpdateAcc),
			strconv.FormatUint(r.Delegs, 10),
			strconv.FormatUint(r.Undelegs, 10),
			strconv.FormatUint(r.NackCount, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSweepCSV renders a Figure 11/12 sweep.
func WriteSweepCSV(w io.Writer, rows []SweepRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"config", "cycles", "messages", "speedup",
		"msg_ratio", "undelegations", "update_accuracy"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Config,
			strconv.FormatUint(r.Cycles, 10),
			strconv.FormatUint(r.Messages, 10),
			f(r.Speedup), f(r.MsgRatio),
			strconv.FormatUint(r.Undelegs, 10),
			f(r.UpdAcc),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig8CSV renders the equal-silicon-area comparison.
func WriteFig8CSV(w io.Writer, rows []Fig8Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"app", "config", "cycles", "speedup"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{r.App, r.Config,
			strconv.FormatUint(r.Cycles, 10), f(r.Speedup)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable3CSV renders the consumer-count distribution, rows in the
// paper's application order.
func WriteTable3CSV(w io.Writer, dist map[string][5]float64) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"app", "pct_1", "pct_2", "pct_3", "pct_4", "pct_4plus"}); err != nil {
		return err
	}
	for _, wl := range workload.All() {
		d, ok := dist[wl.Name]
		if !ok {
			continue
		}
		if err := cw.Write([]string{wl.Name,
			f(d[0]), f(d[1]), f(d[2]), f(d[3]), f(d[4])}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteAblationCSV renders the §3.2 delegation-only comparison.
func WriteAblationCSV(w io.Writer, rows []AblationRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"app", "base_cycles", "deleg_only_cycles",
		"deleg_upd_cycles", "deleg_speedup", "full_speedup"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{r.App,
			strconv.FormatUint(r.BaseCycles, 10),
			strconv.FormatUint(r.DelegOnly, 10),
			strconv.FormatUint(r.DelegUpd, 10),
			f(r.DelegSpeedup), f(r.FullSpeedup)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig9CSV renders the intervention-delay sweep.
func WriteFig9CSV(w io.Writer, rows []Fig9Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"app", "delay", "cycles", "normalized"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{r.App, r.Delay,
			strconv.FormatUint(r.Cycles, 10), f(r.Normalized)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig10CSV renders the hop-latency sweep.
func WriteFig10CSV(w io.Writer, rows []Fig10Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"hop_ns", "base_cycles", "mech_cycles", "speedup"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{strconv.Itoa(r.HopNsec),
			strconv.FormatUint(r.BaseCycles, 10),
			strconv.FormatUint(r.MechCycles, 10), f(r.Speedup)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
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
