package harness

import (
	"fmt"
	"io"
	"text/tabwriter"

	"pccsim/internal/core"
	"pccsim/internal/runner"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
	"pccsim/internal/workload"
)

// RunSpec describes one simulation run. The pccsim CLI binds its root
// flags onto it and a serve run job's body decodes into it, so a command
// line and a job body describe the same cell; the JSON keys are the flag
// names. A zero Workload, Nodes or Scale takes its default (em3d, 16
// nodes, scale 1), a zero Delay means 50 cycles, and a nil Hop means 100
// cycles (0 is a zero-latency network).
type RunSpec struct {
	Workload      string  `json:"workload"`
	Protocol      string  `json:"protocol"` // "" = adaptive
	Nodes         int     `json:"nodes"`
	Scale         int     `json:"scale"`
	Iters         int     `json:"iters"`   // 0 = the workload's default
	RAC           int     `json:"rac"`     // RAC bytes (0 = none)
	Deledc        int     `json:"deledc"`  // delegate-cache entries (0 = delegation off)
	Updates       bool    `json:"updates"` // speculative updates, with a RAC and delegation
	Delay         uint64  `json:"delay"`   // intervention delay in cycles
	Hop           *uint64 `json:"hop"`     // network hop latency in cycles
	Check         bool    `json:"check"`   // runtime coherence invariant checks
	Shards        int     `json:"shards"`
	Deterministic bool    `json:"deterministic"`
}

// Cell applies the spec's defaults and returns the run as a runner job
// without Label or Attach. Negative sizes (workload.ErrBadParams), an
// unknown workload and a configuration core rejects fail here, before
// anything simulates.
func (sp RunSpec) Cell() (runner.Job, error) {
	o := Options{Nodes: sp.Nodes, Scale: sp.Scale, Iters: sp.Iters,
		Shards: sp.Shards, Deterministic: sp.Deterministic}.WithDefaults()
	if err := o.params().Validate(); err != nil {
		return runner.Job{}, err
	}
	if sp.Workload == "" {
		sp.Workload = "em3d"
	}
	wl, err := workload.Lookup(sp.Workload)
	if err != nil {
		return runner.Job{}, err
	}
	cfg := mech(core.DefaultConfig(), sp.RAC, sp.Deledc, sp.Updates)
	cfg.Nodes = o.Nodes
	cfg.Protocol = sp.Protocol
	if sp.Delay != 0 {
		cfg.InterventionDelay = sim.Time(sp.Delay)
	}
	if sp.Hop != nil {
		cfg.Network.HopLatency = sim.Time(*sp.Hop)
	}
	cfg.CheckInvariants = sp.Check
	job := o.job("", cfg, wl)
	if err := job.Cfg.Validate(); err != nil {
		return runner.Job{}, err
	}
	return job, nil
}

// WriteRunReport renders the canonical report of one run cell: the header
// line followed by the full stats dump. The pccsim CLI and the serve result
// path both render through here, which is what makes an HTTP-submitted
// run's body byte-identical to the equivalent CLI invocation's stdout.
func WriteRunReport(w io.Writer, cell runner.Job, st *stats.Stats) {
	fmt.Fprintf(w, "workload %s on %d nodes (scale %d)\n", cell.Workload.Name, cell.Params.Nodes, cell.Params.Scale)
	st.Dump(w)
}

// PrintTable1 renders the system configuration (the paper's Table 1).
func PrintTable1(w io.Writer, cfg core.Config) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Parameter\tValue")
	fmt.Fprintf(tw, "Processors\t%d nodes, in-order, %d outstanding stores, 2GHz\n", cfg.Nodes, cfg.MaxStores)
	fmt.Fprintf(tw, "L1 D-cache\t%d-way, %dKB, %dB lines, %d-cycle lat.\n",
		cfg.L1Ways, cfg.L1Bytes/1024, cfg.L1LineBytes, cfg.L1Latency)
	fmt.Fprintf(tw, "L2 cache\t%d-way, %dKB, %dB lines, %d-cycle lat.\n",
		cfg.L2Ways, cfg.L2Bytes/1024, cfg.L2LineBytes, cfg.L2Latency)
	fmt.Fprintf(tw, "Directory cache\t%d entries (+8b detector per entry)\n", cfg.DirCacheEntries)
	fmt.Fprintf(tw, "DRAM\t%d processor cycles latency\n", cfg.DRAMLatency)
	fmt.Fprintf(tw, "Network\t%d processor cycles latency per hop, fat tree radix %d\n",
		cfg.Network.HopLatency, cfg.Network.Radix)
	fmt.Fprintf(tw, "RAC\t%dKB (0 = absent)\n", cfg.RACBytes/1024)
	fmt.Fprintf(tw, "Delegate cache\t%d entries (0 = absent)\n", cfg.DelegateEntries)
	fmt.Fprintf(tw, "Speculative updates\t%v (intervention delay %d cycles)\n",
		cfg.EnableUpdates, cfg.InterventionDelay)
	tw.Flush()
}

// PrintTable2 renders the application data sets (the paper's Table 2,
// with our scaled problem sizes alongside the originals).
func PrintTable2(w io.Writer, opts Options) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Application\tPaper problem size\tThis reproduction")
	for _, wl := range workload.All() {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", wl.Name, wl.PaperSize, wl.OurSize(opts.params()))
	}
	tw.Flush()
}

// PrintTable3 renders the consumer-count distribution.
func PrintTable3(w io.Writer, dist map[string][5]float64) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Application\t1\t2\t3\t4\t4+   (% of producer-consumer write rounds)")
	for _, wl := range workload.All() {
		d := dist[wl.Name]
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\n",
			wl.Name, d[0], d[1], d[2], d[3], d[4])
	}
	tw.Flush()
}

// PrintFig7 renders the three Figure 7 panels: speedup, normalized network
// messages, and normalized remote misses.
func PrintFig7(w io.Writer, rows []Row) {
	configs := Fig7Configs()
	apps := workload.All()

	panel := func(title string, f func(Row) float64) {
		fmt.Fprintf(w, "\n%s\n", title)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "Config")
		for _, a := range apps {
			fmt.Fprintf(tw, "\t%s", a.Name)
		}
		fmt.Fprintln(tw)
		for _, c := range configs {
			fmt.Fprint(tw, c.Label)
			for _, a := range apps {
				for _, r := range rows {
					if r.App == a.Name && r.Config == c.Label {
						fmt.Fprintf(tw, "\t%.3f", f(r))
					}
				}
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}
	panel("Speedup (relative to Base)", func(r Row) float64 { return r.Speedup })
	panel("Network messages (normalized to Base)", func(r Row) float64 { return r.MsgRatio })
	panel("Remote misses (normalized to Base)", func(r Row) float64 { return r.MissRatio })

	fmt.Fprintln(w)
	for _, c := range configs[1:] {
		fmt.Fprintf(w, "%-28s geo-mean speedup %.3f, mean traffic ratio %.3f, mean remote-miss ratio %.3f\n",
			c.Label, GeoMeanSpeedup(rows, c.Label),
			MeanRatio(rows, c.Label, func(r Row) float64 { return r.MsgRatio }),
			MeanRatio(rows, c.Label, func(r Row) float64 { return r.MissRatio }))
	}
}

// PrintFig8 renders the equal-silicon-area comparison.
func PrintFig8(w io.Writer, rows []Fig8Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Application\tConfig\tCycles\tSpeedup vs base")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.3f\n", r.App, r.Config, r.Cycles, r.Speedup)
	}
	tw.Flush()
}

// PrintFig9 renders the intervention-delay sensitivity matrix.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "Application")
	for _, d := range Fig9Delays() {
		fmt.Fprintf(tw, "\t%s", delayLabel(d))
	}
	fmt.Fprintln(tw, "\t(execution time normalized to 5-cycle delay)")
	for _, wl := range workload.All() {
		fmt.Fprint(tw, wl.Name)
		for _, r := range rows {
			if r.App == wl.Name {
				fmt.Fprintf(tw, "\t%.3f", r.Normalized)
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// PrintFig10 renders the hop-latency sensitivity for Appbt.
func PrintFig10(w io.Writer, rows []Fig10Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Hop latency (ns)\tBase cycles\tMech cycles\tSpeedup")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.3f\n", r.HopNsec, r.BaseCycles, r.MechCycles, r.Speedup)
	}
	tw.Flush()
}

// PrintSweep renders a Figure 11/12 structure-size sweep.
func PrintSweep(w io.Writer, rows []SweepRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Config\tSpeedup\tMsg ratio\tUndelegations\tUpdate accuracy")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%d\t%.2f\n",
			r.Config, r.Speedup, r.MsgRatio, r.Undelegs, r.UpdAcc)
	}
	tw.Flush()
}

// PrintAblation renders the delegation-only comparison.
func PrintAblation(w io.Writer, rows []AblationRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Application\tBase\tDelegation-only\tDeleg+updates\tDeleg speedup\tFull speedup")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.3f\t%.3f\n",
			r.App, r.BaseCycles, r.DelegOnly, r.DelegUpd, r.DelegSpeedup, r.FullSpeedup)
	}
	tw.Flush()
}
