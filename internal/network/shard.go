// Sharded operation: the network is the only layer that moves work
// between shards, so it owns the cross-shard mailboxes and the lookahead
// bound that makes the group's conservative windows sound. A network
// built by New is the one-shard case of the same code: every node maps
// to shard 0 and no message ever takes the mailbox detour.
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
	"pccsim/internal/sim"
	"pccsim/internal/stats"
)

// mailEntry is a cross-shard message staged with its arrival time.
type mailEntry struct {
	at sim.Time
	m  *msg.Message
}

// NewSharded creates a network partitioned across grp's shards. shardOf
// maps every node to its owning shard; sts provides one stats collector
// per shard (per-shard so concurrent Sends never contend; the caller
// keeps the slice and folds it after the run). The group's lookahead
// must not exceed MinLookahead(cfg, shardOf); NewSharded registers the
// mailbox drain as a barrier hook on grp.
func NewSharded(grp *sim.Group, cfg Config, shardOf []int, sts []*stats.Stats) *Network {
	if len(shardOf) != cfg.Nodes {
		panic("network: shardOf must map every node to a shard")
	}
	if len(sts) != grp.Shards() {
		panic("network: need one stats collector per shard")
	}
	sh := make([]*shardEnv, grp.Shards())
	for i := range sh {
		sh[i] = &shardEnv{
			eng:  grp.Engine(i),
			st:   sts[i],
			mail: make([][]mailEntry, grp.Shards()),
		}
	}
	n := newNetwork(cfg, shardOf, sh)
	grp.OnBarrier(n.drainMail)
	return n
}

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
