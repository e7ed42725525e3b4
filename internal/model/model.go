// Package model is the "simple analytical model" the paper mentions in §5
// (used there to derive the 1/(1-accuracy) speedup limit): execution-time
// predictions from first principles — miss counts times per-class
// latencies — validated against the simulator. It exists for two reasons:
// sanity-checking simulator results (a measured speedup far from the
// model's prediction signals a bug or an unmodeled effect), and exploring
// parameter regions without simulating.
package model

import (
	"math"

	"pccsim/internal/core"
	"pccsim/internal/stats"
)

// ClassLatency is the modeled round-trip latency of each miss class, in
// processor cycles.
type ClassLatency struct {
	LocalRAC   float64
	LocalHome  float64
	Remote2Hop float64
	Remote3Hop float64
}

// Latencies derives per-class latencies from a machine configuration.
// Network legs use the expected hop count of the fat tree (for 16 nodes:
// 8 of 15 peers are 1 hop away, 7 are 2 hops).
func Latencies(cfg core.Config) ClassLatency {
	hop := float64(cfg.Network.HopLatency)
	ser := float64(2 * (32 / max(1, cfg.Network.PortBytesPerCycle))) // header serialization both ends
	leg := avgHops(cfg)*hop + ser
	dir := float64(cfg.DirLatency)
	dram := float64(cfg.DRAMLatency)
	l2 := float64(cfg.L2Latency)
	return ClassLatency{
		LocalRAC:   l2 + dir,
		LocalHome:  l2 + dir + dram,
		Remote2Hop: l2 + 2*leg + dir + dram/2, // data often comes from a cache, not DRAM
		Remote3Hop: l2 + 3*leg + 2*dir,
	}
}

// avgHops is the expected router hops between two distinct nodes.
func avgHops(cfg core.Config) float64 {
	n := cfg.Nodes
	if n <= 1 {
		return 0
	}
	radix := cfg.Network.Radix
	if radix <= 0 {
		radix = 8
	}
	same := radix - 1
	if same > n-1 {
		same = n - 1
	}
	cross := (n - 1) - same
	return (float64(same)*1 + float64(cross)*2) / float64(n-1)
}

// StallCycles estimates the per-node memory stall time of a run: the
// miss-class counts weighted by their latencies, averaged over nodes.
// Stores overlap in the store buffer, so only a fraction of miss latency
// is exposed; loads block fully. The blocking factor folds both together.
func StallCycles(cfg core.Config, st *stats.Stats) float64 {
	lat := Latencies(cfg)
	total := float64(st.Misses[stats.MissLocalRAC])*lat.LocalRAC +
		float64(st.Misses[stats.MissLocalHome])*lat.LocalHome +
		float64(st.Misses[stats.MissRemote2Hop])*lat.Remote2Hop +
		float64(st.Misses[stats.MissRemote3Hop])*lat.Remote3Hop
	const blockingFactor = 0.8 // loads block, stores partially overlap
	return blockingFactor * total / float64(cfg.Nodes)
}

// PredictSpeedup predicts the mechanism configuration's speedup from the
// two runs' miss profiles: the base execution time minus the modeled
// reduction in per-node stall time.
func PredictSpeedup(cfg core.Config, base, mech *stats.Stats) float64 {
	saved := StallCycles(cfg, base) - StallCycles(cfg, mech)
	b := float64(base.ExecCycles)
	if b <= 0 || saved >= b {
		return math.Inf(1)
	}
	return b / (b - saved)
}

// LatencyLimit is the §5 bound: with update accuracy a and a fraction f of
// base execution time spent on removable remote misses, speedup approaches
// 1/(1-a*f) as network latency grows; with f -> 1 this is the paper's
// 1/(1-accuracy).
func LatencyLimit(accuracy, remoteFraction float64) float64 {
	x := accuracy * remoteFraction
	if x >= 1 {
		return math.Inf(1)
	}
	if x < 0 {
		x = 0
	}
	return 1 / (1 - x)
}

// RemoteFraction estimates f for LatencyLimit from a base run: the share
// of execution time the model attributes to remote misses.
func RemoteFraction(cfg core.Config, base *stats.Stats) float64 {
	lat := Latencies(cfg)
	remote := float64(base.Misses[stats.MissRemote2Hop])*lat.Remote2Hop +
		float64(base.Misses[stats.MissRemote3Hop])*lat.Remote3Hop
	f := 0.8 * remote / float64(cfg.Nodes) / float64(base.ExecCycles)
	if f > 1 {
		f = 1
	}
	return f
}
