package harness

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"pccsim/internal/core"
	"pccsim/internal/runner"
	"pccsim/internal/workload"
)

// AccuracyBound is the paper's §5 analytical model: "as network latency
// grows, the achievable speedup is limited to 1/(1-accuracy)". With update
// accuracy a, at most a fraction a of remote read misses can be removed,
// so in the latency-dominated limit speedup cannot exceed 1/(1-a).
func AccuracyBound(accuracy float64) float64 {
	if accuracy >= 1 {
		return math.Inf(1)
	}
	if accuracy < 0 {
		accuracy = 0
	}
	return 1 / (1 - accuracy)
}

// ExtRow is one row of the §5-extensions ablation.
type ExtRow struct {
	App string
	// Speedups vs the same baseline.
	Fixed    float64 // paper configuration: fixed 50-cycle delay
	Adaptive float64 // adaptive per-line delay
	Pair     float64 // two-writer detector (fixed delay)
	// Update accuracy under the fixed configuration and its §5 bound.
	Accuracy float64
	Bound    float64
}

// Extensions runs the §5 future-work ablations on every workload: the
// adaptive intervention delay and the two-writer detector, against the
// paper's fixed small configuration.
func (s *Session) Extensions() ([]ExtRow, error) {
	base := core.DefaultConfig()
	base.Nodes = s.Opts.Nodes
	fixed := mech(base, 32*1024, 32, true)
	adaptive := fixed
	adaptive.AdaptiveDelay = true
	pair := fixed
	pair.DetectorWriters = 2
	apps := workload.All()

	var jobs []runner.Job
	for _, wl := range apps {
		jobs = append(jobs,
			s.job("extensions/"+wl.Name+"/base", base, wl),
			s.job("extensions/"+wl.Name+"/fixed", fixed, wl),
			s.job("extensions/"+wl.Name+"/adaptive", adaptive, wl),
			s.job("extensions/"+wl.Name+"/pair", pair, wl))
	}
	res, err := s.run(jobs)
	if err != nil {
		return nil, err
	}
	var rows []ExtRow
	for i, wl := range apps {
		bst, fst, ast, pst := res[i*4], res[i*4+1], res[i*4+2], res[i*4+3]
		bound := AccuracyBound(fst.UpdateAccuracy())
		if math.IsInf(bound, 1) {
			bound = 999 // JSON-safe sentinel for "unbounded"
		}
		rows = append(rows, ExtRow{
			App:      wl.Name,
			Fixed:    ratio(bst.ExecCycles, fst.ExecCycles),
			Adaptive: ratio(bst.ExecCycles, ast.ExecCycles),
			Pair:     ratio(bst.ExecCycles, pst.ExecCycles),
			Accuracy: fst.UpdateAccuracy(),
			Bound:    bound,
		})
	}
	return rows, nil
}

// RelatedRow compares the paper's mechanisms with the related-work
// baseline it cites: dynamic self-invalidation (Lebeck & Wood; Lai &
// Falsafi), which converts 3-hop reads into 2-hop home hits, where the
// paper's updates convert them into local hits.
type RelatedRow struct {
	App string
	// Speedups vs the same baseline.
	SelfInval float64
	DelegOnly float64
	DelegUpd  float64
	// Remote 3-hop miss counts (the metric self-invalidation moves).
	Base3Hop uint64
	DSI3Hop  uint64
	// Local-hit counts (the metric only updates move).
	DSILocal uint64
	UpdLocal uint64
}

// RelatedWork joins the bake-off and the ablation into the four-way
// comparison per workload; it schedules no cells of its own. The
// baseline is the ablation's Base cell, and its 3-hop count comes from
// the bake-off's mesi cell: mesi is the base machine under its protocol
// name, so the two cells simulate identically. Self-invalidation is the
// dsi cell and delegation+updates the adaptive cell (both on their
// bake-off configuration); delegation-only is the ablation column.
func (s *Session) RelatedWork() ([]RelatedRow, error) {
	cmp, err := s.Compare()
	if err != nil {
		return nil, err
	}
	abl, err := s.Ablation()
	if err != nil {
		return nil, err
	}
	cell := make(map[[2]string]CompareRow, len(cmp))
	for _, r := range cmp {
		cell[[2]string{r.App, r.Protocol}] = r
	}
	rows := make([]RelatedRow, len(abl))
	for i, a := range abl {
		mesi := cell[[2]string{a.App, CompareBaseline}]
		dsi := cell[[2]string{a.App, "dsi"}]
		upd := cell[[2]string{a.App, "adaptive"}]
		rows[i] = RelatedRow{
			App:       a.App,
			SelfInval: ratio(a.BaseCycles, dsi.Cycles),
			DelegOnly: a.DelegSpeedup,
			DelegUpd:  a.FullSpeedup,
			Base3Hop:  mesi.MissRemote3,
			DSI3Hop:   dsi.MissRemote3,
			DSILocal:  dsi.MissRAC,
			UpdLocal:  upd.MissRAC,
		}
	}
	return rows, nil
}

// PrintRelated renders the related-work comparison.
func PrintRelated(w io.Writer, rows []RelatedRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Application\tSelf-inval\tDeleg-only\tDeleg+updates\t3-hop base->DSI\tlocal hits DSI/upd")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%d -> %d\t%d / %d\n",
			r.App, r.SelfInval, r.DelegOnly, r.DelegUpd,
			r.Base3Hop, r.DSI3Hop, r.DSILocal, r.UpdLocal)
	}
	tw.Flush()
}

// PrintExtensions renders the §5 ablation.
func PrintExtensions(w io.Writer, rows []ExtRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Application\tFixed 50cy\tAdaptive delay\t2-writer detector\tUpd accuracy\t1/(1-acc) bound")
	for _, r := range rows {
		bound := fmt.Sprintf("%.2f", r.Bound)
		if r.Bound >= 999 {
			bound = "inf"
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.2f\t%s\n",
			r.App, r.Fixed, r.Adaptive, r.Pair, r.Accuracy, bound)
	}
	tw.Flush()
}
