package network

import (
	"testing"

	"pccsim/internal/msg"
	"pccsim/internal/obs"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
)

// newShardedNet builds the default 16-node network over a serial 2-shard
// group: nodes 0-7 (one leaf router) on shard 0, nodes 8-15 on shard 1.
func newShardedNet(t *testing.T) (*sim.Group, *Network, []*stats.Stats) {
	t.Helper()
	cfg := DefaultConfig()
	shardOf := make([]int, cfg.Nodes)
	for i := range shardOf {
		shardOf[i] = i * 2 / cfg.Nodes
	}
	look := MinLookahead(cfg, shardOf)
	grp := sim.NewGroup(2, look, look, false)
	sts := []*stats.Stats{stats.New(), stats.New()}
	return grp, NewSharded(grp, cfg, shardOf, sts), sts
}

func TestShardedCrossShardDelivery(t *testing.T) {
	grp, n, sts := newShardedNet(t)
	var at sim.Time
	n.Register(8, func(*msg.Message) { at = grp.Engine(1).Now() })
	n.Send(&msg.Message{Type: msg.GetShared, Src: 0, Dst: 8})
	// Before the barrier the message sits in shard 0's lane to shard 1,
	// on neither engine, and still counts as traveling.
	if got := len(n.sh[0].mail[1]); got != 1 {
		t.Fatalf("shard 0 staged %d messages for shard 1, want 1", got)
	}
	if p := grp.Pending(); p != 0 {
		t.Fatalf("%d events scheduled before the barrier, want 0", p)
	}
	if f := n.InFlight(); f != 1 {
		t.Fatalf("InFlight = %d before the barrier, want 1", f)
	}
	grp.RunGuarded(0)
	// The same pricing as TestDeliveryLatency on one engine.
	if want := sim.Time(4 + 200 + 4); at != want {
		t.Fatalf("delivered at %d, want %d", at, want)
	}
	if f := n.InFlight(); f != 0 {
		t.Fatalf("InFlight = %d after the run, want 0", f)
	}
	if sts[0].TotalMessages() != 1 || sts[1].TotalMessages() != 0 {
		t.Fatalf("traffic recorded on shards %d/%d, want 1/0 (the sender's)",
			sts[0].TotalMessages(), sts[1].TotalMessages())
	}
}

// shardChaos counts the calls it receives, notes when it last gave a
// verdict and answers with fixed values.
type shardChaos struct {
	jitter            sim.Time
	verdict           Verdict
	jitters, verdicts int
	verdictAt         sim.Time
}

func (c *shardChaos) Jitter(sim.Time, *msg.Message) sim.Time { c.jitters++; return c.jitter }

func (c *shardChaos) Verdict(now sim.Time, _ *msg.Message) Verdict {
	c.verdicts++
	c.verdictAt = now
	return c.verdict
}

func TestShardedChaosPerShard(t *testing.T) {
	grp, n, _ := newShardedNet(t)
	src := &shardChaos{jitter: 50}
	dst := &shardChaos{jitter: 1000, verdict: Bounce}
	n.SetChaos(0, src)
	n.SetChaos(1, dst)
	var nackAt sim.Time
	n.Register(0, func(m *msg.Message) {
		if m.Type != msg.Nack || m.Src != 8 {
			t.Fatalf("node 0 received %s, want a NACK from node 8", m)
		}
		nackAt = grp.Engine(0).Now()
	})
	n.Register(8, func(m *msg.Message) { t.Fatalf("bounced request reached node 8: %s", m) })
	n.Send(&msg.Message{Type: msg.GetShared, Src: 0, Dst: 8, Requester: 0})
	grp.RunGuarded(0)
	// Jitter comes from the sender's shard and Verdict from the
	// receiver's, for the request and for the NACK that bounces back.
	if src.jitters != 1 || src.verdicts != 1 || dst.jitters != 1 || dst.verdicts != 1 {
		t.Fatalf("shard 0 saw %d jitters/%d verdicts, shard 1 %d/%d; want 1/1 each",
			src.jitters, src.verdicts, dst.jitters, dst.verdicts)
	}
	// Request: 4 + 200 + 50 (shard 0's jitter) + 4; the NACK leaves at
	// 258 and pays 4 + 200 + 1000 (shard 1's jitter) + 4.
	if dst.verdictAt != 258 {
		t.Fatalf("request reached node 8 at %d, want 258", dst.verdictAt)
	}
	if want := sim.Time(258 + 4 + 200 + 1000 + 4); nackAt != want {
		t.Fatalf("NACK delivered at %d, want %d", nackAt, want)
	}
	if f := n.InFlight(); f != 0 {
		t.Fatalf("InFlight = %d after the run, want 0", f)
	}
}

func TestShardedObsPerShard(t *testing.T) {
	grp, n, _ := newShardedNet(t)
	sinks := []*obs.Sink{obs.NewSink(16), obs.NewSink(16)}
	for s, sink := range sinks {
		n.SetObs(s, sink)
	}
	for i := 0; i < 16; i++ {
		n.Register(msg.NodeID(i), func(*msg.Message) {})
	}
	for _, p := range [][2]msg.NodeID{{0, 8}, {3, 5}, {9, 1}, {12, 12}} {
		n.Send(&msg.Message{Type: msg.GetShared, Src: p[0], Dst: p[1]})
	}
	grp.RunGuarded(0)
	for s, sink := range sinks {
		if sink.Total() != 2 {
			t.Fatalf("shard %d sink saw %d sends, want 2", s, sink.Total())
		}
		for _, e := range sink.Events() {
			if e.Kind != obs.KindSend || int(e.Node)*2/16 != s {
				t.Fatalf("shard %d sink saw %+v from another shard's sender", s, e)
			}
		}
	}
	// The self-send is network traffic too, on route length 0.
	if h := sinks[1].M.HopCount; h != [3]uint64{1, 0, 1} {
		t.Fatalf("shard 1 hop counts %v, want [1 0 1]", h)
	}
}
