// Package msg defines the coherence message vocabulary exchanged between
// hubs, mirroring the protocol of the paper: a conventional SGI-style
// directory write-invalidate protocol (requests, interventions, replies,
// NACK/retry) extended with directory-delegation messages (DELEGATE,
// UNDELEGATE, new-home hints) and speculative-update pushes.
//
// Packets are sized like NUMALink-4 packets: a 32-byte minimum (header)
// packet, plus the cache line payload for data-bearing messages.
package msg

import (
	"fmt"
	"math/bits"
)

// NodeID identifies a node (hub) in the system. Nodes are numbered from 0;
// two bytes hold every legal id (MaxNodes) and None.
type NodeID int16

// HomeMem is a pseudo-node used as the source of messages that originate in
// a home node's memory/directory rather than a cache.
const None NodeID = -1

// Addr is a physical byte address. Protocol messages always carry
// line-aligned addresses.
type Addr uint64

// VectorWords is the number of 64-bit words backing a Vector. It is the
// single width parameter for the full-map sharing vector: machines of up
// to 64*VectorWords nodes are legal.
const VectorWords = 4

// MaxNodes is the largest legal node count. The directory keeps one
// presence bit per node, so the machine size is capped by the vector
// width (the paper models 16 nodes; the sharded engine sweeps to 256).
const MaxNodes = 64 * VectorWords

// Vector is a full-map sharing bit vector over nodes. It is a fixed-size
// array value: comparable with ==, copyable, and allocation-free on the
// pooled message path. The zero value Vector{} is the empty vector.
//
// Machines of 64 or fewer nodes only ever populate word 0, and every
// operation takes a single-word fast path in that case — the multi-word
// generality costs nothing measurable there (benchmark-gated against the
// old uint64 implementation).
type Vector [VectorWords]uint64

// Set returns v with node n added.
func (v Vector) Set(n NodeID) Vector {
	v[uint(n)>>6] |= 1 << (uint(n) & 63)
	return v
}

// Clear returns v with node n removed.
func (v Vector) Clear(n NodeID) Vector {
	v[uint(n)>>6] &^= 1 << (uint(n) & 63)
	return v
}

// Has reports whether node n is in the vector.
func (v Vector) Has(n NodeID) bool { return v[uint(n)>>6]&(1<<(uint(n)&63)) != 0 }

// Empty reports whether no node is in the vector.
func (v Vector) Empty() bool { return v[0]|v[1]|v[2]|v[3] == 0 }

// Count returns the number of nodes in the vector.
func (v Vector) Count() int {
	return bits.OnesCount64(v[0]) + bits.OnesCount64(v[1]) +
		bits.OnesCount64(v[2]) + bits.OnesCount64(v[3])
}

// Or returns the union of v and w.
func (v Vector) Or(w Vector) Vector {
	for i := range v {
		v[i] |= w[i]
	}
	return v
}

// AndNot returns the members of v that are not in w.
func (v Vector) AndNot(w Vector) Vector {
	for i := range v {
		v[i] &^= w[i]
	}
	return v
}

// Nodes returns the members of the vector in ascending order.
func (v Vector) Nodes() []NodeID {
	out := make([]NodeID, 0, v.Count())
	for i, w := range v {
		for ; w != 0; w &= w - 1 {
			out = append(out, NodeID(i*64+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// String renders the vector as its member list, e.g. [1 5 64].
func (v Vector) String() string { return fmt.Sprint(v.Nodes()) }

// NotSingletonError reports a sharing vector that was required to hold
// exactly one node but did not — in a consistent directory this means
// corrupted owner state. Single returns it; Only panics with it.
type NotSingletonError struct{ V Vector }

func (e *NotSingletonError) Error() string {
	return fmt.Sprintf("sharing vector %v has %d members (machine max %d nodes), want exactly one",
		e.V.Nodes(), e.V.Count(), MaxNodes)
}

// Single returns the single member of the vector, or a *NotSingletonError
// when the vector does not contain exactly one node. It is the recoverable
// form of Only for callers that report rather than crash.
func (v Vector) Single() (NodeID, error) {
	n := None
	for i, w := range v {
		if w == 0 {
			continue
		}
		if w&(w-1) != 0 || n != None {
			return None, &NotSingletonError{V: v}
		}
		n = NodeID(i*64 + bits.TrailingZeros64(w))
	}
	if n == None {
		return None, &NotSingletonError{V: v}
	}
	return n, nil
}

// Only returns the single member of the vector; it panics if the vector
// does not contain exactly one node (a directory-consistency bug). The
// context string names the call site so the panic locates the violated
// invariant without a stack dive.
func (v Vector) Only(context string) NodeID {
	if w := v[0]; w != 0 && w&(w-1) == 0 && v[1]|v[2]|v[3] == 0 {
		return NodeID(bits.TrailingZeros64(w))
	}
	n, err := v.Single()
	if err != nil {
		panic(fmt.Sprintf("msg: %s: %v", context, err))
	}
	return n
}

// Lowest returns the lowest-numbered member of the vector (MaxNodes when
// empty). With ClearLowest it is the allocation-free building block for
// iterating members:
//
//	for w := v; !w.Empty(); w = w.ClearLowest() {
//		n := w.Lowest()
//		...
//	}
func (v Vector) Lowest() NodeID {
	if v[0] != 0 {
		return NodeID(bits.TrailingZeros64(v[0]))
	}
	for i := 1; i < VectorWords; i++ {
		if v[i] != 0 {
			return NodeID(i*64 + bits.TrailingZeros64(v[i]))
		}
	}
	return MaxNodes
}

// ClearLowest returns v with its lowest-numbered member removed (v
// unchanged when empty).
func (v Vector) ClearLowest() Vector {
	for i, w := range v {
		if w != 0 {
			v[i] = w & (w - 1)
			return v
		}
	}
	return v
}

// Type enumerates coherence message types.
type Type uint8

const (
	// Requests (requester -> home, or requester -> delegated home).
	GetShared Type = iota // read miss: request a read-only copy
	GetExcl               // write miss: request an exclusive copy
	Upgrade               // write hit on SHARED: request ownership, no data
	Writeback             // evict dirty EXCL line back to home
	// Interventions (home -> owner/sharers).
	Intervention // downgrade EXCL owner to SHARED, forward data
	Invalidate   // invalidate a SHARED copy
	TransferReq  // forwarded GETX: owner passes exclusive copy to requester
	// Replies.
	SharedReply     // home -> requester: data, read-only
	ExclReply       // home -> requester: data + pending InvAck count
	UpgradeAck      // home -> requester: ownership granted + InvAck count
	SharedResponse  // owner -> requester: data, read-only (3-hop read)
	ExclResponse    // owner -> requester: data, exclusive (3-hop write)
	SharedWriteback // owner -> home: downgraded data copy (3-hop read)
	TransferAck     // owner -> home: ownership moved to requester
	InvAck          // sharer -> requester: invalidation done
	WBAck           // home -> evictor: writeback accepted
	Nack            // try again later (busy home, races)
	NackNotHome     // delegated node no longer home: drop hint, retry at home
	// Delegation (the paper's §2.3).
	Delegate      // home -> producer: directory entry handed over
	Undelegate    // producer -> home: directory entry handed back
	UndelegateAck // home -> producer: undelegation committed
	NewHomeHint   // home -> requester: line is delegated, use new home
	// Speculative updates (the paper's §2.4).
	Update    // producer -> consumer RAC: pushed fresh data
	UpdateAck // consumer -> producer: push accepted (keeps vector fresh)
	// Dynamic self-invalidation (the related-work baseline of Lebeck &
	// Wood / Lai & Falsafi the paper compares against): the owner
	// eagerly downgrades after its write burst and sends the data home,
	// converting later 3-hop reads into 2-hop home hits.
	EagerWriteback // owner -> home: voluntary downgrade data
	// Hybrid update/invalidate (Dovgopol & Rosonke, arXiv:1502.00101):
	// the home commits a shared write in place and pushes the fresh
	// data to the sharers instead of invalidating them. Sharers
	// acknowledge to the home (Kept reports whether they retained the
	// copy); the home grants the writer once the round completes.
	UpdateData  // home -> sharer: pushed fresh data for a shared write
	UpdateGrant // home -> writer: hybrid shared write committed
)

var typeNames = [...]string{
	GetShared:       "GetShared",
	GetExcl:         "GetExcl",
	Upgrade:         "Upgrade",
	Writeback:       "Writeback",
	Intervention:    "Intervention",
	Invalidate:      "Invalidate",
	TransferReq:     "TransferReq",
	SharedReply:     "SharedReply",
	ExclReply:       "ExclReply",
	UpgradeAck:      "UpgradeAck",
	SharedResponse:  "SharedResponse",
	ExclResponse:    "ExclResponse",
	SharedWriteback: "SharedWriteback",
	TransferAck:     "TransferAck",
	InvAck:          "InvAck",
	WBAck:           "WBAck",
	Nack:            "Nack",
	NackNotHome:     "NackNotHome",
	Delegate:        "Delegate",
	Undelegate:      "Undelegate",
	UndelegateAck:   "UndelegateAck",
	NewHomeHint:     "NewHomeHint",
	Update:          "Update",
	UpdateAck:       "UpdateAck",
	EagerWriteback:  "EagerWriteback",
	UpdateData:      "UpdateData",
	UpdateGrant:     "UpdateGrant",
}

// NumTypes is the number of distinct message types.
const NumTypes = len(typeNames)

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType resolves a message-type name (as produced by Type.String) back
// to its value. Fault schedules and replay corpora name types textually so
// the JSON stays readable and stable across protocol-enum reordering.
func ParseType(name string) (Type, bool) {
	for t, n := range typeNames {
		if n == name {
			return Type(t), true
		}
	}
	return 0, false
}

// CarriesData reports whether messages of this type carry a cache-line
// payload (and therefore pay the line-size cost on the wire).
func (t Type) CarriesData() bool {
	switch t {
	case SharedReply, ExclReply, SharedResponse, ExclResponse,
		SharedWriteback, Writeback, Update, Delegate, Undelegate,
		EagerWriteback, UpdateData, UpdateGrant:
		return true
	}
	return false
}

// IsRequest reports whether this type is an initial request subject to
// NACK/retry.
func (t Type) IsRequest() bool {
	switch t {
	case GetShared, GetExcl, Upgrade:
		return true
	}
	return false
}

// HeaderBytes is the minimum NUMALink packet size (Table 1 / §3.1).
const HeaderBytes = 32

// Message is one coherence packet in flight. The small fields come
// first, so they pack into two words ahead of the 8-byte ones.
type Message struct {
	Type Type
	Src  NodeID // sending hub
	Dst  NodeID // receiving hub

	// Requester is the node on whose behalf a forwarded message travels
	// (interventions, transfers) or that a reply ultimately serves.
	Requester NodeID

	// Owner carries the owner field of a directory entry in
	// Delegate/Undelegate messages, and the new home in NewHomeHint.
	Owner NodeID

	// Dirty marks Undelegate/Writeback payloads that must be written to
	// memory.
	Dirty bool

	// Fwd carries the type of a request being handed back to the home
	// inside an Undelegate message (§2.3.3: "the UNDELE message includes
	// the identity of this node and the original home node can handle
	// the request").
	Fwd Type

	// PCHint marks a grant (ExclReply/UpgradeAck) for a line the home's
	// detector classified producer-consumer; under dynamic
	// self-invalidation the owner arms an eager downgrade for it.
	PCHint bool

	// Kept reports, in a hybrid UpdateAck, whether the sharer retained
	// its copy after applying (or dropping) the pushed update; the home
	// clears the sharer's presence bit when false.
	Kept bool

	Addr Addr // line-aligned address

	// AckCount is the number of InvAcks the requester must collect
	// (ExclReply, UpgradeAck, Delegate).
	AckCount int

	// Sharers carries directory state in Delegate/Undelegate messages.
	Sharers Vector

	// Version is the abstract data value carried by data-bearing
	// messages: every store to a line increments the line's version.
	// The simulator uses versions to check coherence invariants at
	// runtime (§2.5's "invariant checking applied to the simulator").
	Version uint64

	// GrantTxn is the ownership epoch an Intervention or TransferReq
	// refers to: the Txn of the request that made the current owner
	// exclusive. Owners act only on interventions matching the epoch of
	// their copy (or of their in-flight grant) and drop stale ones —
	// those belong to an ownership already ended by a crossing
	// writeback, which the home completes from instead.
	GrantTxn uint64

	// Txn is the requester's transaction number (the hardware analogue
	// is the CRB/TNUM of SGI hubs). Replies, NACKs and invalidation
	// acknowledgements echo the number of the request they answer, so a
	// requester can discard responses to superseded attempts — e.g. the
	// data reply made redundant when a speculative update satisfied the
	// miss first.
	Txn uint64
}

// LineBytes is the coherence granularity (L2 line size, Table 1).
const LineBytes = 128

// Bytes returns the on-wire size of the message.
func (m *Message) Bytes() int {
	if m.Type.CarriesData() {
		return HeaderBytes + LineBytes
	}
	return HeaderBytes
}

func (m *Message) String() string {
	return fmt.Sprintf("%s %d->%d addr=%#x req=%d acks=%d v=%d",
		m.Type, m.Src, m.Dst, uint64(m.Addr), m.Requester, m.AckCount, m.Version)
}
