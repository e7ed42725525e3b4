// Package perf holds the event engine's churn microbenchmark: a pure
// schedule/step loop over the protocol's characteristic delays, with no
// protocol, network or cache code on the path. perfbench reports it as
// sim.churn_ns_per_event beside the real simulator's ns/event, so the
// engine's share of the hot loop is always measured, not assumed.
package perf

import (
	"time"

	"pccsim/internal/msg"
	"pccsim/internal/sim"
)

// churnMix mirrors the protocol's characteristic event delays (crossbar,
// hop, directory, DRAM) — the same mix BenchmarkEngineChurn in
// internal/sim uses, so the two numbers are comparable.
var churnMix = [8]sim.Time{20, 100, 50, 200, 100, 20, 100, 10}

// churner is a self-rescheduling MsgHandler: each handled event schedules
// its successor, exercising the typed, pooled hot path end to end.
type churner struct {
	eng  *sim.Engine
	n    uint64
	quit uint64
}

func (c *churner) HandleMsgEvent(op uint8, m *msg.Message) {
	c.n++
	if c.n >= c.quit {
		c.eng.FreeMsg(m)
		return
	}
	c.eng.AfterMsg(churnMix[c.n&7], c, op, m)
}

// BenchEngine measures raw engine throughput over total events with k
// independent event chains in flight.
func BenchEngine(total uint64, k int) (uint64, time.Duration) {
	eng := sim.NewEngine()
	c := &churner{eng: eng, quit: total}
	for i := 0; i < k; i++ {
		m := eng.NewMsg()
		m.Addr = msg.Addr(i) * 128
		eng.AfterMsg(churnMix[i&7], c, 0, m)
	}
	start := time.Now()
	for eng.Pending() > 0 {
		eng.Step()
	}
	return c.n, time.Since(start)
}
