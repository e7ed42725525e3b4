package network

import (
	"testing"
	"testing/quick"

	"pccsim/internal/msg"
	"pccsim/internal/obs"
	"pccsim/internal/sim"
	"pccsim/internal/sim/simtest"
	"pccsim/internal/stats"
)

func newNet(t *testing.T, nodes int) (*sim.Engine, *Network, *stats.Stats) {
	t.Helper()
	eng := sim.NewEngine()
	st := stats.New()
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	n := New(eng, cfg, st)
	return eng, n, st
}

func TestHopsFatTree(t *testing.T) {
	_, n, _ := newNet(t, 16)
	if n.Hops(3, 3) != 0 {
		t.Fatal("self hops should be 0")
	}
	if n.Hops(0, 7) != 1 {
		t.Fatal("same leaf group should be 1 hop")
	}
	if n.Hops(0, 8) != 2 {
		t.Fatal("cross-root should be 2 hops")
	}
	if n.Hops(8, 15) != 1 {
		t.Fatal("second leaf group should be 1 hop")
	}
}

func TestDeliveryLatency(t *testing.T) {
	eng, n, _ := newNet(t, 16)
	var deliveredAt sim.Time
	n.Register(8, func(m *msg.Message) { deliveredAt = eng.Now() })
	n.Register(0, func(m *msg.Message) {})
	m := &msg.Message{Type: msg.GetShared, Src: 0, Dst: 8}
	n.Send(m)
	eng.Run()
	// 32-byte header / 8 B/cycle = 4 cycles serialization each end,
	// 2 hops * 100 = 200 cycles.
	want := sim.Time(4 + 200 + 4)
	if deliveredAt != want {
		t.Fatalf("delivered at %d, want %d", deliveredAt, want)
	}
}

func TestLocalDeliveryUsesCrossbar(t *testing.T) {
	eng, n, _ := newNet(t, 4)
	var at sim.Time
	n.Register(2, func(m *msg.Message) { at = eng.Now() })
	n.Send(&msg.Message{Type: msg.Update, Src: 2, Dst: 2})
	eng.Run()
	if at != n.Config().LocalLatency {
		t.Fatalf("local delivery at %d, want %d", at, n.Config().LocalLatency)
	}
}

func TestPortContentionSerializes(t *testing.T) {
	eng, n, _ := newNet(t, 16)
	var times []sim.Time
	n.Register(1, func(m *msg.Message) { times = append(times, eng.Now()) })
	// Two max-size messages from node 0 at the same cycle must leave the
	// egress port back to back.
	n.Send(&msg.Message{Type: msg.SharedReply, Src: 0, Dst: 1})
	n.Send(&msg.Message{Type: msg.SharedReply, Src: 0, Dst: 1})
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(times))
	}
	ser := sim.Time((msg.HeaderBytes + msg.LineBytes) / 8) // 20 cycles
	if times[1]-times[0] != ser {
		t.Fatalf("second delivery %d cycles after first, want %d", times[1]-times[0], ser)
	}
}

func TestIngressContention(t *testing.T) {
	eng, n, _ := newNet(t, 16)
	var times []sim.Time
	n.Register(2, func(m *msg.Message) { times = append(times, eng.Now()) })
	// Messages from two different sources arrive at the same ingress.
	n.Send(&msg.Message{Type: msg.GetShared, Src: 0, Dst: 2})
	n.Send(&msg.Message{Type: msg.GetShared, Src: 1, Dst: 2})
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(times))
	}
	if times[0] == times[1] {
		t.Fatal("ingress port did not serialize simultaneous arrivals")
	}
}

func TestStatsRecorded(t *testing.T) {
	eng, n, st := newNet(t, 16)
	n.Register(5, func(m *msg.Message) {})
	n.Send(&msg.Message{Type: msg.GetExcl, Src: 0, Dst: 5})
	n.Send(&msg.Message{Type: msg.ExclReply, Src: 5, Dst: 0})
	n.Register(0, func(m *msg.Message) {})
	eng.Run()
	if st.TotalMessages() != 2 {
		t.Fatalf("TotalMessages = %d, want 2", st.TotalMessages())
	}
	if st.MsgCount[msg.GetExcl] != 1 || st.MsgCount[msg.ExclReply] != 1 {
		t.Fatal("per-type counts wrong")
	}
}

func TestInFlightTracking(t *testing.T) {
	eng, n, _ := newNet(t, 16)
	n.Register(1, func(m *msg.Message) {
		if n.InFlight() != 0 {
			t.Fatalf("InFlight = %d during delivery, want 0", n.InFlight())
		}
	})
	n.Send(&msg.Message{Type: msg.GetShared, Src: 0, Dst: 1})
	if n.InFlight() != 1 {
		t.Fatalf("InFlight = %d after send, want 1", n.InFlight())
	}
	eng.Run()
}

func TestObsSinkInvoked(t *testing.T) {
	eng, n, _ := newNet(t, 4)
	n.Register(1, func(m *msg.Message) {})
	sink := obs.NewSink(16)
	n.SetObs(0, sink)
	n.Send(&msg.Message{Type: msg.GetShared, Src: 0, Dst: 1})
	eng.Run()
	if sink.Total() != 1 {
		t.Fatalf("sink saw %d events, want 1", sink.Total())
	}
	evs := sink.Events()
	if len(evs) != 1 || evs[0].Kind != obs.KindSend || evs[0].Hops == 0 ||
		evs[0].Bytes != uint32((&msg.Message{Type: msg.GetShared}).Bytes()) {
		t.Fatalf("bad send event: %+v", evs)
	}
	if sink.M.MsgCount[msg.GetShared] != 1 {
		t.Fatalf("metrics missed the send: %+v", sink.M.MsgCount)
	}
}

func TestHopLatencyScaling(t *testing.T) {
	for _, hop := range []sim.Time{25, 50, 100, 200} {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		cfg.HopLatency = hop
		n := New(eng, cfg, stats.New())
		var at sim.Time
		n.Register(15, func(m *msg.Message) { at = eng.Now() })
		n.Send(&msg.Message{Type: msg.GetShared, Src: 0, Dst: 15})
		eng.Run()
		want := sim.Time(4) + 2*hop + 4
		if at != want {
			t.Fatalf("hop=%d: delivered at %d, want %d", hop, at, want)
		}
	}
}

// Property: all messages are delivered exactly once, to the right node,
// never before the minimum possible latency.
func TestPropertyDelivery(t *testing.T) {
	f := func(pairs []struct{ S, D uint8 }) bool {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		n := New(eng, cfg, stats.New())
		got := make([]int, cfg.Nodes)
		for i := 0; i < cfg.Nodes; i++ {
			id := msg.NodeID(i)
			n.Register(id, func(m *msg.Message) {
				if m.Dst != id {
					t.Errorf("node %d received message for %d", id, m.Dst)
				}
				got[id]++
			})
		}
		want := make([]int, cfg.Nodes)
		sent := 0
		for _, p := range pairs {
			src := msg.NodeID(int(p.S) % cfg.Nodes)
			dst := msg.NodeID(int(p.D) % cfg.Nodes)
			n.Send(&msg.Message{Type: msg.GetShared, Src: src, Dst: dst})
			want[dst]++
			sent++
		}
		eng.Run()
		if n.InFlight() != 0 {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: messages between the same (src, dst) pair are delivered in the
// order they were sent, regardless of sizes and interleaving with other
// traffic. The coherence protocol depends on this (invalidations must not
// overtake the updates pushed before them; replies must not overtake the
// interventions queued ahead — see internal/core and DESIGN.md §4).
func TestPropertyPairwiseFIFO(t *testing.T) {
	f := func(plan []struct {
		S, D  uint8
		Big   bool
		Burst uint8
	}) bool {
		eng := sim.NewEngine()
		cfg := DefaultConfig()
		n := New(eng, cfg, stats.New())
		type rec struct{ seq int }
		nextSeq := map[[2]msg.NodeID]int{}
		wantSeq := map[[2]msg.NodeID]int{}
		okAll := true
		for i := 0; i < cfg.Nodes; i++ {
			id := msg.NodeID(i)
			n.Register(id, func(m *msg.Message) {
				key := [2]msg.NodeID{m.Src, m.Dst}
				if int(m.Version) != wantSeq[key] {
					okAll = false
				}
				wantSeq[key]++
			})
		}
		// Issue sends in bursts at staggered times; Version carries the
		// per-pair sequence number.
		at := sim.Time(0)
		for _, p := range plan {
			src := msg.NodeID(int(p.S) % cfg.Nodes)
			dst := msg.NodeID(int(p.D) % cfg.Nodes)
			if src == dst {
				continue
			}
			ty := msg.GetShared
			if p.Big {
				ty = msg.SharedReply
			}
			burst := int(p.Burst%3) + 1
			for b := 0; b < burst; b++ {
				key := [2]msg.NodeID{src, dst}
				seq := nextSeq[key]
				nextSeq[key]++
				m := &msg.Message{Type: ty, Src: src, Dst: dst, Version: uint64(seq)}
				simtest.At(eng, at, func() { n.Send(m) })
			}
			at += sim.Time(p.Burst % 7)
		}
		eng.Run()
		for key, want := range nextSeq {
			if wantSeq[key] != want {
				return false // lost messages
			}
		}
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
