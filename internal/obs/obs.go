// Package obs is the simulator's structured observability layer: a
// zero-cost-when-off event stream emitted by the interconnect and the
// protocol handlers, a live metrics registry derived from it, and a
// Perfetto/Chrome trace_event exporter.
//
// The design follows the network.Chaos pattern: producers hold a *Sink
// pointer that is nil by default, so the disabled path costs exactly one
// pointer compare per potential event and allocates nothing. When a sink
// is attached, events are value-typed records stored into a preallocated
// ring — no per-event allocation — while the sink's Metrics aggregate
// every event ever emitted (so totals stay exact even after the ring
// wraps).
package obs

import (
	"pccsim/internal/msg"
	"pccsim/internal/sim"
)

// Kind enumerates the protocol events the simulator emits.
type Kind uint8

const (
	// KindSend is a packet injected into the interconnect by
	// network.Network.Send. Msg holds the full packet; Hops and Bytes the
	// fat-tree route cost. A self-send that reaches Network.Send is
	// counted like any packet, with Hops 0, exactly as Stats counts it;
	// the hubs' own self-sends never get there (Hub.send takes them over
	// the crossbar directly), so they emit no KindSend.
	KindSend Kind = iota
	// KindMissStart is an MSHR allocation: an L2 miss transaction began
	// at Node for Addr. Arg is the MSHR occupancy after allocation;
	// Arg2 is 1 for a write (exclusive) miss, 0 for a read.
	KindMissStart
	// KindMissEnd retires a miss transaction. Arg is the occupancy after
	// retirement; Arg2 is the stats.MissClass the miss resolved to.
	KindMissEnd
	// KindPCDetect: the home's directory-cache detector classified Addr
	// as producer-consumer (§2.2). Node is the home.
	KindPCDetect
	// KindDelegate: the home decided to delegate Addr and sent the
	// DELEGATE message (§2.3.1). Node is the home; Arg the producer.
	KindDelegate
	// KindDelegateInstall: the producer installed the delegated
	// directory entry. Node is the producer; Arg the producer-table
	// occupancy after the install.
	KindDelegateInstall
	// KindUndelegate: the producer handed the line back (§2.3.3). Node
	// is the producer; Arg is the stats.UndelegateReason (cause a/b/c);
	// Arg2 is 1 when the delegation was never installed (saturated
	// producer table).
	KindUndelegate
	// KindUndelegateCommit: the home restored directory control. Node is
	// the home; Arg the former producer.
	KindUndelegateCommit
	// KindIntervention: a producer copy was downgraded for consumers.
	// Arg2 distinguishes the flavour: 0 = demand 3-hop intervention at
	// the home, 1 = the §2.4.1 delayed intervention fired, 2 = an early
	// consumer read forced the downgrade at the delegated home.
	KindIntervention
	// KindUpdatePush: a speculative update left the producer (§2.4.2).
	// Node is the producer; Arg the consumer; Arg2 the data version.
	KindUpdatePush
	// KindUpdateHit: a pushed update was consumed by a read (a RAC hit
	// or a match against an outstanding miss). Node is the consumer;
	// Arg2 the version.
	KindUpdateHit
	// KindUpdateWaste: a pushed update died unread (overwritten, evicted
	// or refused for lack of RAC space). Node is the consumer.
	KindUpdateWaste
	numKinds
)

var kindNames = [...]string{
	KindSend:             "send",
	KindMissStart:        "miss-start",
	KindMissEnd:          "miss-end",
	KindPCDetect:         "pc-detect",
	KindDelegate:         "delegate",
	KindDelegateInstall:  "delegate-install",
	KindUndelegate:       "undelegate",
	KindUndelegateCommit: "undelegate-commit",
	KindIntervention:     "intervention",
	KindUpdatePush:       "update-push",
	KindUpdateHit:        "update-hit",
	KindUpdateWaste:      "update-waste",
}

// NumKinds is the number of distinct event kinds.
const NumKinds = int(numKinds)

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// Event is one observability record. Events are value types: emitting one
// never allocates, and the ring stores them inline.
type Event struct {
	// At is the simulation time of the event, in processor cycles.
	At sim.Time
	// Kind selects which of the remaining fields are meaningful.
	Kind Kind
	// Node is the hub at which the event happened (the sender for
	// KindSend).
	Node msg.NodeID
	// Addr is the cache line involved (line-aligned).
	Addr msg.Addr
	// Hops is the fat-tree route length of a KindSend: 1 or 2, or 0 for
	// a self-send (see KindSend).
	Hops uint8
	// Bytes is the on-wire packet size of a KindSend.
	Bytes uint32
	// Arg and Arg2 carry kind-specific payloads; see the Kind constants.
	Arg, Arg2 uint64
	// Msg is the full packet of a KindSend (copied: the protocol pools
	// and reuses message structs).
	Msg msg.Message
}

// Sink receives events. The zero value is not useful; see NewSink.
//
// A Sink is attached through core.System.AttachObs, which hands it to the
// hubs and to the interconnect (network.Network.SetObs, per shard);
// producers nil-check the pointer before building an event, so a
// detached sink costs nothing.
type Sink struct {
	// M aggregates every emitted event; it is updated live so its
	// counters and per-line timelines remain exact even after the ring
	// has wrapped.
	M Metrics
	// Tap, when non-nil, receives every event as it is emitted (after
	// the ring store). It is how secondary consumers — the trace
	// recorder, fault-repro capture — ride one sink.
	Tap func(Event)

	ring      []Event
	next      int
	wrapped   bool
	unbounded bool
	buffer    bool
	total     uint64
	staged    []Event
}

// NewSink returns a sink retaining events per capacity: capacity > 0 keeps
// the most recent capacity events in a preallocated ring; capacity == 0
// keeps no events (metrics and tap only); capacity < 0 retains everything
// (the ring grows without bound — use only for short runs being exported).
func NewSink(capacity int) *Sink {
	s := &Sink{}
	s.M.init()
	switch {
	case capacity > 0:
		s.ring = make([]Event, capacity)
	case capacity < 0:
		s.unbounded = true
	}
	return s
}

// NewBuffer returns a sink in staging mode, used as one shard's private
// event buffer on the sharded scheduler. Emit only appends to an internal
// slice — no ring, no metrics, no tap — so events can be re-emitted into
// the real user sink at a window barrier without double-counting. The
// owning shard emits during a window; the coordinator drains with
// Buffered/ResetBuffer between windows.
func NewBuffer() *Sink {
	s := &Sink{buffer: true}
	s.M.init()
	return s
}

// Buffered returns the staged events of a NewBuffer sink, in emission
// order. The slice is only valid until the next Emit or ResetBuffer.
func (s *Sink) Buffered() []Event { return s.staged }

// ResetBuffer clears a staging sink, retaining capacity.
func (s *Sink) ResetBuffer() { s.staged = s.staged[:0] }

// Emit records one event: ring store, metrics aggregation, tap. It never
// allocates on the counter paths; per-line timeline kinds may grow the
// metrics map (they are rare — delegation lifecycle, not per-message).
func (s *Sink) Emit(e Event) {
	if s.buffer {
		s.staged = append(s.staged, e)
		return
	}
	s.total++
	if s.unbounded {
		s.ring = append(s.ring, e)
	} else if len(s.ring) > 0 {
		s.ring[s.next] = e
		s.next++
		if s.next == len(s.ring) {
			s.next = 0
			s.wrapped = true
		}
	}
	s.M.observe(&e)
	if s.Tap != nil {
		s.Tap(e)
	}
}

// OnEvent chains fn onto the Tap, after any function already there.
func (s *Sink) OnEvent(fn func(Event)) {
	prev := s.Tap
	if prev == nil {
		s.Tap = fn
		return
	}
	s.Tap = func(e Event) { prev(e); fn(e) }
}

// Recorder returns a sink that keeps the most recent capacity message
// sends s sees (capacity <= 0 keeps 4096), only those for line unless
// line is 0. It rides s's Tap: the plain-text message timeline behind
// pccsim.Machine.Trace and `pccsim -trace N`.
func (s *Sink) Recorder(capacity int, line msg.Addr) *Sink {
	if capacity <= 0 {
		capacity = 4096
	}
	rec := NewSink(capacity)
	s.OnEvent(func(e Event) {
		if e.Kind == KindSend && (line == 0 || e.Msg.Addr == line) {
			rec.Emit(e)
		}
	})
	return rec
}

// Total reports how many events were emitted (including ones the ring has
// since overwritten).
func (s *Sink) Total() uint64 { return s.total }

// Events returns the retained events in emission order.
func (s *Sink) Events() []Event {
	if s.unbounded {
		out := make([]Event, len(s.ring))
		copy(out, s.ring)
		return out
	}
	var out []Event
	if s.wrapped {
		out = append(out, s.ring[s.next:]...)
		out = append(out, s.ring[:s.next]...)
	} else {
		out = append(out, s.ring[:s.next]...)
	}
	return out
}
