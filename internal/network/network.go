// Package network models the system interconnect: a NUMALink-4-style
// fat-tree with eight children per non-leaf router (§3.1). Per the paper we
// do not model contention inside routers, but we do model hub port
// contention: each node's network interface serializes packets at a finite
// bandwidth. Message latency is the hop count between nodes (1 within a
// leaf router's group, 2 across the root) times the configurable hop
// latency, 100 processor cycles by default (50 ns at 2 GHz).
package network

import (
	"fmt"

	"pccsim/internal/msg"
	"pccsim/internal/obs"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
)

// Config holds interconnect timing parameters.
type Config struct {
	// Nodes is the number of hubs attached to the fabric.
	Nodes int
	// Radix is the number of children per non-leaf router (8 on
	// NUMALink-4).
	Radix int
	// HopLatency is the per-hop latency in processor cycles (Table 1:
	// 100 cycles = 50 ns).
	HopLatency sim.Time
	// LocalLatency is the hub-internal crossbar latency for messages a
	// node sends to itself (delegated home on the producer, RAC fills).
	LocalLatency sim.Time
	// PortBytesPerCycle is the NI serialization bandwidth in bytes per
	// processor cycle (Table 1: 16 B per hub cycle at 500 MHz hub /
	// 2 GHz core = 4 B per core cycle; we default to 8 to account for
	// the dual channels).
	PortBytesPerCycle int
}

// DefaultConfig mirrors Table 1 for a 16-node system.
func DefaultConfig() Config {
	return Config{
		Nodes:             16,
		Radix:             8,
		HopLatency:        100,
		LocalLatency:      20,
		PortBytesPerCycle: 8,
	}
}

// Handler receives delivered messages at a node.
type Handler func(*msg.Message)

// Verdict is a fault-injection decision about a message that reached its
// destination port (see Chaos).
type Verdict uint8

const (
	// Deliver hands the message to the node's handler (the normal path).
	Deliver Verdict = iota
	// Bounce converts a request into a NACK back to its requester without
	// the destination ever seeing it — the spurious-NACK fault. NACKs are
	// always a legal response to a request in this protocol (the requester
	// just retries), so bouncing perturbs timing and races but never
	// correctness. Non-request messages cannot be bounced; a Bounce
	// verdict for one is treated as Deliver.
	Bounce
	// Drop silently discards the message. Losing a coherence packet is
	// NOT a legal fault on a reliable fabric — Drop exists so tests can
	// inject known protocol bugs and prove the fuzzer catches them.
	Drop
)

// Chaos is the fault-injection hook: a deterministic adversary that
// perturbs message delivery. Each shard has its own injector (see
// SetChaos): Jitter is called on the sending node's shard and Verdict on
// the receiving node's, each from that shard's goroutine in event order,
// so a seeded implementation is fully deterministic. A nil Chaos (the
// default) costs one pointer check per message; the zero-fault path is
// otherwise untouched.
type Chaos interface {
	// Jitter returns extra in-flight cycles for m, sampled once when m is
	// injected. Returning 0 leaves the deterministic fat-tree timing.
	// Jitter delays one message without holding back later ones on the
	// same route, so it is also the bounded-reordering knob: messages can
	// overtake each other by at most the jitter bound.
	Jitter(now sim.Time, m *msg.Message) sim.Time
	// Verdict decides the fate of m as it reaches its destination.
	Verdict(now sim.Time, m *msg.Message) Verdict
}

// Network routes coherence messages between hubs with deterministic timing.
// Its nodes are partitioned into shards, each with its own engine and
// interconnect state; a single-engine network is one shard.
type Network struct {
	cfg      Config
	handlers []Handler
	egress   []sim.Time // next cycle each node's output port is free
	ingress  []sim.Time // next cycle each node's input port is free
	shardOf  []int      // the shard owning each node
	sh       []*shardEnv
}

// shardEnv is one shard's slice of the interconnect state. During a
// window it is read and written only by its owning shard's goroutine;
// at barriers, only by the coordinator.
type shardEnv struct {
	eng *sim.Engine
	st  *stats.Stats
	// obs, when non-nil, receives a KindSend event for every packet this
	// shard's nodes send, carrying its hop count and wire size. Like
	// chaos, a nil obs costs one pointer check per message.
	obs *obs.Sink
	// chaos is this shard's fault injector: consulted for Jitter when
	// the shard's nodes send and for Verdict when they receive.
	chaos Chaos
	// inFlight is this shard's contribution to the in-flight count.
	// Sends increment on the source shard and deliveries decrement on
	// the destination shard, so an individual counter can go negative;
	// only the sum is meaningful.
	inFlight int
	// mail[d] stages messages bound for shard d until the next barrier
	// (see shard.go).
	mail [][]mailEntry
}

// New creates a one-shard network over eng collecting into st.
func New(eng *sim.Engine, cfg Config, st *stats.Stats) *Network {
	return newNetwork(cfg, nil, []*shardEnv{{eng: eng, st: st}})
}

// newNetwork builds a network over the shard envs sh; shardOf maps every
// node to its shard, or is nil when there is one shard.
func newNetwork(cfg Config, shardOf []int, sh []*shardEnv) *Network {
	if cfg.Nodes <= 0 {
		panic("network: config needs at least one node")
	}
	if cfg.Radix < 2 {
		cfg.Radix = 2
	}
	if cfg.PortBytesPerCycle <= 0 {
		cfg.PortBytesPerCycle = 8
	}
	if shardOf == nil {
		shardOf = make([]int, cfg.Nodes)
	}
	return &Network{
		cfg:      cfg,
		handlers: make([]Handler, cfg.Nodes),
		egress:   make([]sim.Time, cfg.Nodes),
		ingress:  make([]sim.Time, cfg.Nodes),
		shardOf:  shardOf,
		sh:       sh,
	}
}

// SetObs points shard s's send-side event emission at sink (nil
// detaches it).
func (n *Network) SetObs(s int, sink *obs.Sink) { n.sh[s].obs = sink }

// SetChaos installs shard s's fault injector (nil removes it). Each shard
// needs its own injector instance: its RNG and counters are touched from
// that shard's goroutine.
func (n *Network) SetChaos(s int, c Chaos) { n.sh[s].chaos = c }

// Register installs the delivery handler for node n. Every node must
// register before any message addressed to it is delivered.
func (n *Network) Register(id msg.NodeID, h Handler) {
	n.handlers[id] = h
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// InFlight reports the number of messages currently traveling, summed
// over shards (staged mailbox entries included).
func (n *Network) InFlight() int {
	t := 0
	for _, e := range n.sh {
		t += e.inFlight
	}
	return t
}

// Hops returns the number of router-to-router hops between two nodes in
// the fat tree: 0 for a node to itself, 1 between nodes under the same leaf
// router, 2 through the root otherwise. (The paper's 16-node system has two
// leaf routers of eight nodes each.)
func (n *Network) Hops(a, b msg.NodeID) int {
	if a == b {
		return 0
	}
	if int(a)/n.cfg.Radix == int(b)/n.cfg.Radix {
		return 1
	}
	return 2
}

// Engine event opcodes for the two delivery stages (see Send). Scheduling
// through (handler, opcode, message) instead of a closure keeps the
// per-message event footprint flat and allocation free — message delivery
// is the simulation's single busiest scheduler.
const (
	opArrive  uint8 = iota // reserve the destination ingress port
	opDeliver              // hand the message to the node's handler
)

// serTime is the NI serialization time for m at the configured port width.
func (n *Network) serTime(m *msg.Message) sim.Time {
	return sim.Time((m.Bytes() + n.cfg.PortBytesPerCycle - 1) / n.cfg.PortBytesPerCycle)
}

// HandleMsgEvent advances a message through the delivery pipeline; it is
// the sim.MsgHandler the engine calls for events Send schedules.
func (n *Network) HandleMsgEvent(op uint8, m *msg.Message) {
	switch op {
	case opArrive:
		// Destination port reservation happens on arrival so that port
		// time reflects actual arrival order.
		eng := n.envAt(m.Dst).eng
		ser := n.serTime(m)
		at := max(eng.Now(), n.ingress[m.Dst])
		n.ingress[m.Dst] = at + ser
		eng.ScheduleMsg(at+ser, n, opDeliver, m)
	case opDeliver:
		n.deliver(m)
	}
}

// envAt returns the shard env owning node id.
func (n *Network) envAt(id msg.NodeID) *shardEnv { return n.sh[n.shardOf[id]] }

// Send injects m into the fabric on the sending node's shard. Delivery is
// scheduled after serialization at the source port, hop latency, and
// serialization at the destination port. Messages between a node and
// itself use the hub-internal crossbar (LocalLatency) and skip the NI
// ports, but are still accounted as traffic with a hop count of 0. A
// message bound for another shard is priced the same way and staged in a
// mailbox until the next window barrier (see shard.go).
func (n *Network) Send(m *msg.Message) {
	if int(m.Dst) < 0 || int(m.Dst) >= n.cfg.Nodes {
		panic(fmt.Sprintf("network: message to invalid node: %s", m))
	}
	src := n.shardOf[m.Src]
	e := n.sh[src]
	hops := n.Hops(m.Src, m.Dst)
	e.st.RecordMsg(m)
	e.st.RecordHops(hops)
	now := e.eng.Now()
	if e.obs != nil {
		e.obs.Emit(obs.Event{
			At: now, Kind: obs.KindSend, Node: m.Src, Addr: m.Addr,
			Hops: uint8(hops), Bytes: uint32(m.Bytes()), Msg: *m,
		})
	}
	e.inFlight++
	if m.Src == m.Dst {
		e.eng.ScheduleMsg(now+n.cfg.LocalLatency, n, opDeliver, m)
		return
	}
	ser := n.serTime(m)
	depart := max(now, n.egress[m.Src])
	n.egress[m.Src] = depart + ser
	arrive := depart + ser + sim.Time(hops)*n.cfg.HopLatency
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

// deliver retires m on the destination node's shard, whose env supplies
// the clock and fault injector, and hands it to the node's handler.
func (n *Network) deliver(m *msg.Message) {
	e := n.envAt(m.Dst)
	e.inFlight--
	if e.chaos != nil {
		switch e.chaos.Verdict(e.eng.Now(), m) {
		case Bounce:
			if m.Type.IsRequest() {
				// Reuse the in-flight packet as the NACK: same address,
				// requester and transaction number, source and
				// destination swapped to the bouncing port and the
				// requester. The requester cannot tell this apart from
				// a busy-home NACK, so it retries — the legal
				// resolution of every race in this protocol.
				from := m.Dst
				m.Type = msg.Nack
				m.Src, m.Dst = from, m.Requester
				n.Send(m)
				return
			}
		case Drop:
			e.eng.FreeMsg(m)
			return
		}
	}
	h := n.handlers[m.Dst]
	if h == nil {
		panic(fmt.Sprintf("network: no handler registered for node %d (msg %s)", m.Dst, m))
	}
	h(m)
}
