package harness

import (
	"fmt"
	"io"

	"pccsim/internal/core"
)

// Experiment is one entry of the evaluation: a name to select it by, the
// title its table prints under, how it runs on a Session, and the
// writers it has. Every consumer — pccbench's table, CSV and JSON
// output, serve's experiment jobs and RunAll — walks Experiments, so an
// experiment is declared exactly once.
type Experiment struct {
	Name  string // the pccbench -exp name and the serve "exp" value
	Title string // the heading its table prints under

	run    func(*Session) (any, error)
	print  func(io.Writer, any)
	csv    func(io.Writer, any) error // nil: no CSV form
	report func(*Report, any)         // nil: not part of the JSON report
}

// spec declares an experiment with its row type R, so each entry below
// pairs a Session method with its writers type-safely.
type spec[R any] struct {
	name, title string
	run         func(*Session) (R, error)
	print       func(io.Writer, R)
	csv         func(io.Writer, R) error
	field       func(*Report) *R
}

func (sp spec[R]) experiment() Experiment {
	e := Experiment{
		Name:  sp.name,
		Title: sp.title,
		run:   func(s *Session) (any, error) { return sp.run(s) },
		print: func(w io.Writer, v any) { sp.print(w, v.(R)) },
	}
	if sp.csv != nil {
		e.csv = func(w io.Writer, v any) error { return sp.csv(w, v.(R)) }
	}
	if sp.field != nil {
		e.report = func(r *Report, v any) { *sp.field(r) = v.(R) }
	}
	return e
}

// experiments is the evaluation in the experiment index's order, which
// is also the order `pccbench -exp all` prints it in.
var experiments = []Experiment{
	spec[core.Config]{
		name: "table1", title: "Table 1: system configuration (large config shown)",
		run: table1Config, print: PrintTable1,
	}.experiment(),
	spec[Options]{
		name: "table2", title: "Table 2: applications and data sets",
		run: func(s *Session) (Options, error) { return s.Opts, nil }, print: PrintTable2,
	}.experiment(),
	spec[map[string][5]float64]{
		name: "table3", title: "Table 3: number of consumers in producer-consumer patterns",
		run: (*Session).Table3, print: PrintTable3, csv: WriteTable3CSV,
		field: func(r *Report) *map[string][5]float64 { return &r.Table3 },
	}.experiment(),
	spec[[]Row]{
		name: "fig7", title: "Figure 7: speedup, network messages, remote misses",
		run: (*Session).Fig7, print: PrintFig7, csv: WriteFig7CSV,
		field: func(r *Report) *[]Row { return &r.Fig7 },
	}.experiment(),
	spec[[]Fig8Row]{
		name: "fig8", title: "Figure 8: equal silicon area (smarter vs larger caches)",
		run: (*Session).Fig8, print: PrintFig8, csv: WriteFig8CSV,
		field: func(r *Report) *[]Fig8Row { return &r.Fig8 },
	}.experiment(),
	spec[[]Fig9Row]{
		name: "fig9", title: "Figure 9: sensitivity to intervention delay",
		run: (*Session).Fig9, print: PrintFig9, csv: WriteFig9CSV,
		field: func(r *Report) *[]Fig9Row { return &r.Fig9 },
	}.experiment(),
	spec[[]Fig10Row]{
		name: "fig10", title: "Figure 10: sensitivity to network hop latency (Appbt)",
		run: (*Session).Fig10, print: PrintFig10, csv: WriteFig10CSV,
		field: func(r *Report) *[]Fig10Row { return &r.Fig10 },
	}.experiment(),
	spec[[]SweepRow]{
		name: "fig11", title: "Figure 11: sensitivity to delegate cache size (MG)",
		run: (*Session).Fig11, print: PrintSweep, csv: WriteSweepCSV,
		field: func(r *Report) *[]SweepRow { return &r.Fig11 },
	}.experiment(),
	spec[[]SweepRow]{
		name: "fig12", title: "Figure 12: sensitivity to RAC size (Appbt)",
		run: (*Session).Fig12, print: PrintSweep, csv: WriteSweepCSV,
		field: func(r *Report) *[]SweepRow { return &r.Fig12 },
	}.experiment(),
	spec[[]AblationRow]{
		name: "ablation", title: "Ablation: delegation-only vs delegation+updates (§3.2)",
		run: (*Session).Ablation, print: PrintAblation, csv: WriteAblationCSV,
		field: func(r *Report) *[]AblationRow { return &r.Ablation },
	}.experiment(),
	spec[[]ExtRow]{
		name: "extensions", title: "§5 extensions: adaptive delay, 2-writer detector, accuracy bound",
		run: (*Session).Extensions, print: PrintExtensions,
		field: func(r *Report) *[]ExtRow { return &r.Extensions },
	}.experiment(),
	spec[[]RelatedRow]{
		name: "related", title: "Related work: dynamic self-invalidation vs delegation+updates",
		run: (*Session).RelatedWork, print: PrintRelated,
	}.experiment(),
	spec[[]CompareRow]{
		name: "compare", title: "Protocol bake-off: every registered protocol, head to head",
		run: (*Session).Compare, print: PrintCompare, csv: WriteCompareCSV,
		field: func(r *Report) *[]CompareRow { return &r.Compare },
	}.experiment(),
}

// table1Config is the machine Table 1 shows: the large mechanism
// configuration on the session's node count.
func table1Config(s *Session) (core.Config, error) {
	cfg := core.DefaultConfig().With(core.WithRAC(1024), core.WithDelegation(1024), core.WithSpeculativeUpdates(0))
	cfg.Nodes = s.Opts.Nodes
	return cfg, nil
}

// Experiments returns every experiment in the experiment index's order.
// The slice is shared; do not modify it.
func Experiments() []Experiment { return experiments }

// LookupExperiment finds an experiment by name.
func LookupExperiment(name string) (Experiment, bool) {
	for _, e := range experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// ExperimentNames lists the experiment names in order; with csvOnly, just
// the ones that have a CSV writer.
func ExperimentNames(csvOnly bool) []string {
	var names []string
	for _, e := range experiments {
		if !csvOnly || e.HasCSV() {
			names = append(names, e.Name)
		}
	}
	return names
}

// HasCSV reports whether the experiment has a CSV writer.
func (e Experiment) HasCSV() bool { return e.csv != nil }

// WriteTable runs the experiment on s and prints its titled table,
// followed by a blank line. Nothing is printed if the run fails.
func (e Experiment) WriteTable(w io.Writer, s *Session) error {
	v, err := e.run(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== %s ==\n", e.Title)
	e.print(w, v)
	fmt.Fprintln(w)
	return nil
}

// WriteCSV runs the experiment on s and writes its rows as CSV.
func (e Experiment) WriteCSV(w io.Writer, s *Session) error {
	if e.csv == nil {
		return fmt.Errorf("harness: experiment %q has no CSV writer", e.Name)
	}
	v, err := e.run(s)
	if err != nil {
		return err
	}
	return e.csv(w, v)
}
