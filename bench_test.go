// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (see DESIGN.md §3 for the index). Each reports the paper's
// metrics via b.ReportMetric so `go test -bench=. -benchmem` prints the
// series the figures plot; cmd/pccbench prints the same data as tables at
// full scale.
package pccsim_test

import (
	"fmt"
	"strings"
	"testing"

	"pccsim/internal/core"
	"pccsim/internal/harness"
	"pccsim/internal/mcheck"
	"pccsim/internal/workload"
)

// benchOpts keeps benchmark iterations fast while exercising the full
// 16-node machine.
func benchOpts() harness.Options { return harness.Options{Nodes: 16, Scale: 1, Iters: 4} }

// BenchmarkTable1SystemConfig measures the cost of building the Table 1
// machine itself (construction is on every experiment's path).
func BenchmarkTable1SystemConfig(b *testing.B) {
	cfg := core.DefaultConfig().With(core.WithRAC(1024), core.WithDelegation(1024), core.WithSpeculativeUpdates(0))
	for i := 0; i < b.N; i++ {
		if _, err := core.NewSystem(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Workloads measures building each benchmark's op streams
// (Table 2's applications at our scaled problem sizes).
func BenchmarkTable2Workloads(b *testing.B) {
	for _, wl := range workload.All() {
		b.Run(wl.Name, func(b *testing.B) {
			p := workload.Params{Nodes: 16, Scale: 1}
			ops := 0
			for i := 0; i < b.N; i++ {
				streams := wl.Build(p)
				ops = 0
				for _, s := range streams {
					ops += len(s)
				}
			}
			b.ReportMetric(float64(ops), "ops")
		})
	}
}

// BenchmarkTable3ConsumerDistribution regenerates the consumer-count
// distribution, reporting each application's dominant bucket share.
func BenchmarkTable3ConsumerDistribution(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		dist, err := harness.NewSession(opts).Table3()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, wl := range workload.All() {
				d := dist[wl.Name]
				b.ReportMetric(d[0], wl.Name+"_pct1")
				b.ReportMetric(d[4], wl.Name+"_pct4plus")
			}
		}
	}
}

// BenchmarkFig7 regenerates the headline comparison: for each application
// and each of the six machine configurations, the speedup, normalized
// traffic and normalized remote misses.
func BenchmarkFig7(b *testing.B) {
	opts := benchOpts()
	base := core.DefaultConfig()
	base.Nodes = opts.Nodes
	for _, wl := range workload.All() {
		for _, spec := range harness.Fig7Configs() {
			b.Run(wl.Name+"/"+spec.Label, func(b *testing.B) {
				var st = harness.MustRun(base, wl, workload.Params{Nodes: opts.Nodes, Iters: opts.Iters})
				baseCycles := st.ExecCycles
				baseMsgs := st.TotalMessages()
				baseMiss := st.RemoteMisses()
				for i := 0; i < b.N; i++ {
					st = harness.MustRun(spec.Apply(base), wl,
						workload.Params{Nodes: opts.Nodes, Iters: opts.Iters})
				}
				b.ReportMetric(float64(baseCycles)/float64(st.ExecCycles), "speedup")
				if baseMsgs > 0 {
					b.ReportMetric(float64(st.TotalMessages())/float64(baseMsgs), "msg-ratio")
				}
				if baseMiss > 0 {
					b.ReportMetric(float64(st.RemoteMisses())/float64(baseMiss), "rmiss-ratio")
				}
			})
		}
	}
}

// BenchmarkFig8EqualArea regenerates the smarter-vs-larger cache
// comparison.
func BenchmarkFig8EqualArea(b *testing.B) {
	opts := benchOpts()
	var rows []harness.Fig8Row
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = harness.NewSession(opts).Fig8(); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch {
		case r.Config == "Base (64K L2)":
		case r.Config[0] == 'S': // smarter: mechanisms added
			b.ReportMetric(r.Speedup, r.App+"-smart")
		default: // larger: equal-silicon bigger L2
			b.ReportMetric(r.Speedup, r.App+"-larger")
		}
	}
}

// BenchmarkFig9InterventionDelay regenerates the delay sensitivity sweep
// for em3d (the most delay-sensitive application).
func BenchmarkFig9InterventionDelay(b *testing.B) {
	opts := benchOpts()
	wl, _ := workload.ByName("em3d")
	for _, d := range harness.Fig9Delays() {
		label := fmt.Sprint(uint64(d))
		if d == core.NoIntervention {
			label = "infinite"
		}
		b.Run("delay="+label, func(b *testing.B) {
			cfg := core.DefaultConfig().With(core.WithRAC(32), core.WithDelegation(32), core.WithSpeculativeUpdates(0))
			cfg.Nodes = opts.Nodes
			cfg.InterventionDelay = d
			var cycles uint64
			for i := 0; i < b.N; i++ {
				st := harness.MustRun(cfg, wl, workload.Params{Nodes: opts.Nodes, Iters: opts.Iters})
				cycles = st.ExecCycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkFig10HopLatency regenerates the hop-latency sensitivity.
func BenchmarkFig10HopLatency(b *testing.B) {
	opts := benchOpts()
	var rows []harness.Fig10Row
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = harness.NewSession(opts).Fig10(); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Speedup, fmt.Sprintf("speedup@%dns", r.HopNsec))
	}
}

// BenchmarkFig11DelegateSize regenerates the delegate-cache size sweep (MG).
func BenchmarkFig11DelegateSize(b *testing.B) {
	opts := benchOpts()
	opts.Iters = 0 // MG needs its full V-cycles for table pressure
	var rows []harness.SweepRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = harness.NewSession(opts).Fig11(); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows[1:] {
		b.ReportMetric(r.Speedup, metricName(r.Config))
	}
}

// BenchmarkFig12RACSize regenerates the RAC size sweep (Appbt).
func BenchmarkFig12RACSize(b *testing.B) {
	opts := benchOpts()
	opts.Iters = 0 // Appbt needs its full timesteps for RAC pressure
	var rows []harness.SweepRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = harness.NewSession(opts).Fig12(); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows[1:] {
		b.ReportMetric(r.Speedup, metricName(r.Config))
	}
}

// BenchmarkAblationDelegationOnly regenerates the §3.2 delegation-only
// comparison.
func BenchmarkAblationDelegationOnly(b *testing.B) {
	opts := benchOpts()
	var rows []harness.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = harness.NewSession(opts).Ablation(); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.DelegSpeedup, r.App+"-deleg")
		b.ReportMetric(r.FullSpeedup, r.App+"-full")
	}
}

// BenchmarkVerifyReachability measures the §2.5 model-checker run (the
// Murphi-equivalent verification) on the unit-test configuration.
func BenchmarkVerifyReachability(b *testing.B) {
	cfg := mcheck.DefaultConfig()
	cfg.MaxWrites = 2
	cfg.MaxIssues = 2
	cfg.DetThresh = 1
	for i := 0; i < b.N; i++ {
		res := mcheck.ExploreOpts(cfg, mcheck.Options{})
		if !res.Ok() {
			b.Fatal("verification failed")
		}
		b.ReportMetric(float64(res.States), "states")
	}
}

// metricName turns a config label into a ReportMetric unit (no spaces).
func metricName(label string) string {
	out := strings.ReplaceAll(label, " ", "")
	out = strings.ReplaceAll(out, "&", "+")
	if len(out) > 24 {
		out = out[:24]
	}
	return out
}

// BenchmarkExtensions runs the §5 future-work ablation (adaptive delay,
// two-writer detector).
func BenchmarkExtensions(b *testing.B) {
	opts := benchOpts()
	var rows []harness.ExtRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = harness.NewSession(opts).Extensions(); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Adaptive, r.App+"-adaptive")
	}
}

// BenchmarkRelatedWork runs the dynamic-self-invalidation comparison.
func BenchmarkRelatedWork(b *testing.B) {
	opts := benchOpts()
	var rows []harness.RelatedRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = harness.NewSession(opts).RelatedWork(); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.SelfInval, r.App+"-dsi")
		b.ReportMetric(r.DelegUpd, r.App+"-upd")
	}
}
