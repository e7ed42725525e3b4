package harness

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	"pccsim/internal/core"
	"pccsim/internal/protocol"
	"pccsim/internal/runner"
	"pccsim/internal/workload"
)

// The coherence bake-off: every protocol runs every workload
// head-to-head, each provisioned by CompareConfig (the same rule the
// cross-protocol invariant suite uses). "mesi" — the plain
// write-invalidate baseline — anchors the speedup column.

// CompareBaseline is the protocol every contender is normalized against.
const CompareBaseline = "mesi"

// CompareRow is one (application, protocol) cell of the bake-off.
type CompareRow struct {
	App      string
	Protocol string

	Cycles   uint64
	Speedup  float64 // baseline (mesi) cycles / this protocol's cycles
	Messages uint64
	Bytes    uint64
	AvgHops  float64 // mean network hops per packet

	// L2 miss breakdown by service class.
	MissRAC       uint64
	MissLocalHome uint64
	MissRemote2   uint64
	MissRemote3   uint64

	// Mechanism activity (zero for protocols without the mechanism).
	UpdateAcc   float64 // fraction of pushed/speculative updates consumed
	Delegations uint64
	NackCount   uint64
}

// CompareConfig provisions one protocol for the bake-off: the base
// machine under the protocol's name, which selects its mechanism. The
// delegation mechanism is the one that needs sizing, and gets the
// paper's small configuration (32-entry delegate cache, 32K RAC,
// speculative updates); every other protocol runs the base machine.
func CompareConfig(base core.Config, p protocol.Protocol) core.Config {
	cfg := base
	cfg.Protocol = p.Name()
	if p.Mechanism() == protocol.Delegation {
		cfg = mech(cfg, 32*1024, 32, true)
	}
	return cfg
}

// Compare runs the protocol bake-off: every protocol against every
// workload. Rows are grouped by application in workload order, protocols
// in table (sorted-name) order within each group.
func (s *Session) Compare() ([]CompareRow, error) {
	base := core.DefaultConfig()
	base.Nodes = s.Opts.Nodes
	protos := protocol.All()
	apps := workload.All()

	var jobs []runner.Job
	for _, wl := range apps {
		for _, p := range protos {
			jobs = append(jobs, s.Opts.job("compare/"+wl.Name+"/"+p.Name(), CompareConfig(base, p), wl))
		}
	}
	res, err := s.run(jobs)
	if err != nil {
		return nil, err
	}
	var rows []CompareRow
	for i, wl := range apps {
		group := res[i*len(protos) : (i+1)*len(protos)]
		var baseline uint64
		for j, p := range protos {
			if p.Name() == CompareBaseline {
				baseline = group[j].ExecCycles
			}
		}
		for j, p := range protos {
			st := group[j]
			rows = append(rows, CompareRow{
				App:           wl.Name,
				Protocol:      p.Name(),
				Cycles:        st.ExecCycles,
				Speedup:       ratio(baseline, st.ExecCycles),
				Messages:      st.TotalMessages(),
				Bytes:         st.TotalBytes(),
				AvgHops:       st.AvgHops(),
				MissRAC:       st.RACMisses(),
				MissLocalHome: st.LocalHomeMisses(),
				MissRemote2:   st.Remote2HopMisses(),
				MissRemote3:   st.Remote3HopMisses(),
				UpdateAcc:     st.UpdateAccuracy(),
				Delegations:   st.Delegations,
				NackCount:     st.Nacks(),
			})
		}
	}
	return rows, nil
}

// WriteCompareCSV renders the bake-off table.
func WriteCompareCSV(w io.Writer, rows []CompareRow) error {
	return writeCSV(w, []string{"app", "protocol", "cycles", "speedup_vs_mesi",
		"messages", "bytes", "avg_hops",
		"miss_local_rac", "miss_local_home", "miss_remote_2hop", "miss_remote_3hop",
		"update_accuracy", "delegations", "nacks"}, rows, func(r CompareRow) []string {
		return []string{r.App, r.Protocol, u(r.Cycles), f(r.Speedup), u(r.Messages), u(r.Bytes), f(r.AvgHops),
			u(r.MissRAC), u(r.MissLocalHome), u(r.MissRemote2), u(r.MissRemote3),
			f(r.UpdateAcc), u(r.Delegations), u(r.NackCount)}
	})
}

// PrintCompare renders the bake-off: one per-application block plus a
// geo-mean speedup summary line per protocol.
func PrintCompare(w io.Writer, rows []CompareRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "App\tProtocol\tCycles\tSpeedup\tMessages\tKBytes\tAvg hops\t2-hop\t3-hop\tUpd acc\tDelegs\tNACKs")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.3f\t%d\t%d\t%.2f\t%d\t%d\t%.2f\t%d\t%d\n",
			r.App, r.Protocol, r.Cycles, r.Speedup, r.Messages, r.Bytes/1024,
			r.AvgHops, r.MissRemote2, r.MissRemote3, r.UpdateAcc, r.Delegations, r.NackCount)
	}
	tw.Flush()

	fmt.Fprintln(w)
	for _, p := range protocol.Names() {
		prod, n := 1.0, 0
		for _, r := range rows {
			if r.Protocol == p && r.Speedup > 0 {
				prod *= r.Speedup
				n++
			}
		}
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "%-10s geo-mean speedup vs %s: %.3f\n",
			p, CompareBaseline, math.Pow(prod, 1/float64(n)))
	}
}
