// Sharded operation: the network is the only layer that moves work
// between shards, so it owns the cross-shard mailboxes and the lookahead
// bound that makes the group's conservative windows sound.
//
// Every node belongs to exactly one shard (shardOf). Node-indexed port
// state (egress, ingress) needs no synchronization: egress[i] is touched
// only when node i sends and ingress[i] only when a message arrives at
// node i, and both happen on node i's owning shard. Everything else that
// a Send touches is per-shard (stats, obs buffer, chaos, inFlight,
// outbound mailboxes), so the fast path takes no locks at all.
//
// A cross-shard message is priced exactly like an intra-shard one — the
// departure time, port reservations and hop latency are computed at Send
// on the source shard — but instead of being scheduled into the remote
// engine immediately (a data race), it is staged in a per-(src,dst)
// mailbox lane. The group barrier drains every lane single-threaded in a
// fixed order (source-major, destination, staging order), so the
// sequence numbers the destination engine assigns are identical whether
// the preceding window ran serially or in parallel — this is what makes
// the two schedulers bit-for-bit equivalent at the same shard count.
package network

import (
	"pccsim/internal/msg"
	"pccsim/internal/obs"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
)

// shardEnv is one shard's slice of the interconnect state. During a
// window it is read and written only by its owning shard's goroutine;
// at barriers, only by the coordinator.
type shardEnv struct {
	eng *sim.Engine
	st  *stats.Stats
	// obs, when non-nil, stages this shard's KindSend events (a
	// NewBuffer sink; the core layer merges them at barriers).
	obs *obs.Sink
	// chaos is this shard's fault injector: consulted for Jitter when
	// the shard's nodes send and for Verdict when they receive.
	chaos Chaos
	// inFlight is this shard's contribution to the global in-flight
	// count. Sends increment on the source shard and deliveries
	// decrement on the destination shard, so an individual counter can
	// go negative; only the sum is meaningful.
	inFlight int
	// mail[d] stages messages bound for shard d until the next barrier.
	mail [][]mailEntry
}

type mailEntry struct {
	at sim.Time
	m  *msg.Message
}

// NewSharded creates a network partitioned across grp's shards. shardOf
// maps every node to its owning shard; sts provides one stats collector
// per shard (per-shard so concurrent Sends never
// contend; the caller keeps the slice and folds it after the run). The group's lookahead must not exceed
// MinLookahead(cfg, shardOf); NewSharded registers the mailbox drain as
// a barrier hook on grp.
func NewSharded(grp *sim.Group, cfg Config, shardOf []int, sts []*stats.Stats) *Network {
	if len(shardOf) != cfg.Nodes {
		panic("network: shardOf must map every node to a shard")
	}
	if len(sts) != grp.Shards() {
		panic("network: need one stats collector per shard")
	}
	n := New(grp.Engine(0), cfg, sts[0])
	// The single-engine fields stay nil in sharded mode; every path
	// that uses them branches through the per-shard env instead.
	n.eng, n.st = nil, nil
	n.shardOf = shardOf
	n.sh = make([]*shardEnv, grp.Shards())
	for i := range n.sh {
		n.sh[i] = &shardEnv{
			eng:  grp.Engine(i),
			st:   sts[i],
			mail: make([][]mailEntry, grp.Shards()),
		}
	}
	grp.OnBarrier(n.drainMail)
	return n
}

// Sharded reports whether the network runs over a shard group.
func (n *Network) Sharded() bool { return n.sh != nil }

// SetShardObs points each shard's send-side event emission at its
// staging buffer (obs.NewBuffer sinks). The caller owns the buffers and
// merges them into the user-facing sink at window barriers; the exported
// Obs field is ignored while sharded.
func (n *Network) SetShardObs(bufs []*obs.Sink) {
	for i, e := range n.sh {
		e.obs = bufs[i]
	}
}

// SetShardChaos installs shard s's fault injector. Each shard needs its
// own injector instance (its RNG and counters are touched from that
// shard's goroutine); the exported Chaos field is ignored while sharded.
func (n *Network) SetShardChaos(s int, c Chaos) { n.sh[s].chaos = c }

// envAt returns the shard env owning node id (sharded mode only).
func (n *Network) envAt(id msg.NodeID) *shardEnv { return n.sh[n.shardOf[id]] }

// MinLookahead returns the widest conservative window the fat-tree
// timing model permits for a node-to-shard partition: a lower bound on
// the latency of any cross-shard message. Hops are 1 inside a radix
// group and 2 across the root, and every packet serializes for at least
// one cycle at the source port, so the bound is minHops*HopLatency + 1:
// a message sent at time T can arrive no earlier than T + minHops*hop +
// 1, strictly after the window [T, T+minHops*hop] it was sent in.
func MinLookahead(cfg Config, shardOf []int) sim.Time {
	radix := cfg.Radix
	if radix < 2 {
		radix = 2
	}
	minHops := 2
	for base := 0; base < len(shardOf); base += radix {
		end := base + radix
		if end > len(shardOf) {
			end = len(shardOf)
		}
		for i := base + 1; i < end; i++ {
			if shardOf[i] != shardOf[base] {
				// A radix group split across shards: 1-hop messages
				// cross shards, tightening the window.
				minHops = 1
			}
		}
	}
	return sim.Time(minHops)*cfg.HopLatency + 1
}

// sendSharded is Send's sharded path: identical pricing, per-shard
// state, and a mailbox detour for cross-shard destinations.
func (n *Network) sendSharded(m *msg.Message) {
	src := n.shardOf[m.Src]
	e := n.sh[src]
	e.st.RecordMsg(m)
	e.st.RecordHops(n.Hops(m.Src, m.Dst))
	now := e.eng.Now()
	if e.obs != nil {
		e.obs.Emit(obs.Event{
			At: now, Kind: obs.KindSend, Node: m.Src, Addr: m.Addr,
			Hops: uint8(n.Hops(m.Src, m.Dst)), Bytes: uint32(m.Bytes()), Msg: *m,
		})
	}
	e.inFlight++
	if m.Src == m.Dst {
		e.eng.ScheduleMsg(now+n.cfg.LocalLatency, n, opDeliver, m)
		return
	}
	ser := n.serTime(m)
	depart := maxTime(now, n.egress[m.Src])
	n.egress[m.Src] = depart + ser
	arrive := depart + ser + sim.Time(n.Hops(m.Src, m.Dst))*n.cfg.HopLatency
	if e.chaos != nil {
		arrive += e.chaos.Jitter(now, m)
	}
	if dst := n.shardOf[m.Dst]; dst != src {
		e.mail[dst] = append(e.mail[dst], mailEntry{at: arrive, m: m})
		e.eng.CutWindow()
		return
	}
	e.eng.ScheduleMsg(arrive, n, opArrive, m)
}

// drainMail moves every staged cross-shard message into its destination
// shard's engine. It runs at window barriers on the coordinator, with
// all shards parked, in a fixed order — so destination sequence numbers
// (and therefore event order) do not depend on how the previous window
// was executed.
func (n *Network) drainMail() {
	for _, e := range n.sh {
		for d := range e.mail {
			lane := e.mail[d]
			if len(lane) == 0 {
				continue
			}
			dst := n.sh[d].eng
			for i := range lane {
				dst.ScheduleMsg(lane[i].at, n, opArrive, lane[i].m)
				lane[i] = mailEntry{}
			}
			e.mail[d] = lane[:0]
		}
	}
}
