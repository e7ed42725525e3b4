// Package protocol defines the pluggable coherence-protocol interface
// and its registry. The simulator core (internal/core) owns the event
// machinery — message delivery, directory entries, MSHRs, timing — and
// consults a Protocol at the decision points where registered protocols
// legitimately differ: what to do when a write hits a Shared line with
// other sharers, and which one optional mechanism (delegation,
// self-invalidation or hybrid update pushes) the run layers on the
// write-invalidate base.
//
// A Protocol implementation is a set of pure decision functions: it must
// not schedule events, send messages, or mutate directory state. That
// discipline is what lets the paper's adaptive protocol run through this
// interface byte-identically to the pre-plugin simulator (the fig9/fig10
// golden CSVs and the Perfetto golden pin that equivalence), while the
// MESI baseline and the hybrid update/invalidate rival plug in beside it.
package protocol

import (
	"errors"
	"fmt"
	"sort"

	"pccsim/internal/directory"
	"pccsim/internal/msg"
)

// Mechanism names the one optional mechanism a protocol layers on the
// write-invalidate base. A protocol name selects exactly one, so the
// name alone says which machinery in the core a run can reach, and
// configuration flags only size that machinery.
type Mechanism uint8

const (
	// None is the plain write-invalidate base: every shared write
	// invalidates the other sharers.
	None Mechanism = iota

	// Delegation hands a directory entry to the producer node (the
	// paper's §2.3). It is the only mechanism configuration can tune:
	// the delegate cache size (which needs a RAC to host the delegated
	// master copy), speculative updates via delayed interventions
	// (§2.4) and the adaptive intervention delay (§5) all ride on it.
	Delegation

	// SelfInvalidation has owners of detected producer-consumer lines
	// eagerly downgrade after their write burst (the dynamic
	// self-invalidation baseline the paper compares against).
	SelfInvalidation

	// UpdatePush has shared-write hits push data updates to the current
	// sharers instead of invalidating them (Dovgopol & Rosonke's hybrid
	// update/invalidate family, arXiv:1502.00101).
	UpdatePush
)

// WriteDecision is a protocol's verdict on a write that reached the home
// directory in the Shared state with other sharers present.
type WriteDecision uint8

const (
	// Invalidate runs the classic write-invalidate flow: invalidate the
	// sharers, grant exclusivity to the writer.
	Invalidate WriteDecision = iota

	// Delegate hands the directory entry to the writer (the paper's
	// §2.3.1 delegation decision) along with invalidating sharers.
	Delegate

	// PushUpdates commits the write at the home and pushes the new data
	// to the current sharers, leaving the line Shared (hybrid
	// update/invalidate).
	PushUpdates
)

func (d WriteDecision) String() string {
	switch d {
	case Invalidate:
		return "Invalidate"
	case Delegate:
		return "Delegate"
	case PushUpdates:
		return "PushUpdates"
	}
	return fmt.Sprintf("WriteDecision(%d)", uint8(d))
}

// WriteView is the read-only evidence a protocol may consult when
// deciding a Shared-state write. The Entry pointer is live directory
// state: implementations must treat it as immutable.
type WriteView struct {
	Entry        *directory.Entry
	Requester    msg.NodeID // the writing node
	Home         msg.NodeID // the home (or delegated home) making the decision
	Targets      msg.Vector // current sharers minus the requester
	IsPC         bool       // the detector classifies the line producer-consumer
	DelegationOn bool       // the run's configuration enables delegation
}

// Protocol is one registered coherence protocol. Implementations must be
// stateless (safe for concurrent use by every hub of every run) and
// must confine themselves to returning decisions: the core performs all
// state changes and message sends itself, in a fixed order, so that a
// protocol returning the same decisions as another produces bit-identical
// simulations.
type Protocol interface {
	// Name is the registry key ("adaptive", "mesi", ...).
	Name() string

	// Description is a one-line summary for listings.
	Description() string

	// Mechanism is the optional mechanism the protocol runs.
	Mechanism() Mechanism

	// SharedWrite decides a write request that found the line Shared at
	// the (possibly delegated) home with other sharers present. A
	// protocol may only return PushUpdates if its mechanism is
	// UpdatePush, and only Delegate if it is Delegation and the view's
	// DelegationOn is set.
	SharedWrite(v WriteView) WriteDecision

	// UpdateStreakLimit is the number of consecutive unread update
	// pushes a sharer tolerates before self-invalidating its copy
	// (leaving the update set). Only consulted under UpdatePush; others
	// return 0.
	UpdateStreakLimit() int
}

// ErrUnknown is wrapped by Lookup failures, so callers can classify a
// bad protocol name with errors.Is instead of matching message text.
var ErrUnknown = errors.New("protocol: unknown protocol")

var registry = map[string]Protocol{}

// Register adds a protocol to the registry. It panics on a duplicate or
// empty name — registration happens from init functions, where a clash
// is a programming error.
func Register(p Protocol) {
	name := p.Name()
	if name == "" {
		panic("protocol: Register with empty name")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("protocol: Register called twice for %q", name))
	}
	registry[name] = p
}

// Lookup resolves a protocol by name. The empty name resolves to the
// default (the paper's adaptive protocol). Failures wrap ErrUnknown and
// list the valid names.
func Lookup(name string) (Protocol, error) {
	if name == "" {
		name = Default
	}
	if p, ok := registry[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknown, name, Names())
}

// Default is the name resolved when no protocol is selected.
const Default = "adaptive"

// Names returns the registered protocol names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns the registered protocols in name order.
func All() []Protocol {
	names := Names()
	out := make([]Protocol, 0, len(names))
	for _, name := range names {
		out = append(out, registry[name])
	}
	return out
}
