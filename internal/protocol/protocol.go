// Package protocol is the table of coherence protocols: each is a name
// and the one optional mechanism it layers on the write-invalidate base.
// The simulator core (internal/core) owns all event machinery and gates
// each mechanism's machinery on the run's Mechanism. The one decision the
// protocols make differently, a write that finds the line Shared at the
// home, is the pure Mechanism.SharedWrite, which both the core's home FSM
// and the model checker (internal/mcheck) call.
package protocol

import (
	"errors"
	"fmt"
)

// Mechanism names the one optional mechanism a protocol layers on the
// write-invalidate base. A protocol name selects exactly one, so the
// name alone says which machinery in the core a run can reach, and
// configuration flags only size that machinery.
type Mechanism uint8

const (
	// None is the plain write-invalidate base.
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

// WriteDecision is the verdict on a write that reached the home
// directory in the Shared state.
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

// SharedWrite decides a write that found the line Shared at the
// (possibly delegated) home: isPC says the detector classifies the line
// producer-consumer, remote that the writer is not that home, sharers
// that copies besides the writer's remain. Delegation hands such a line
// to its remote writer (§2.3.1), UpdatePush pushes the write to the
// sharers, and every other write invalidates.
func (m Mechanism) SharedWrite(isPC, remote, sharers bool) WriteDecision {
	switch {
	case m == Delegation && isPC && remote:
		return Delegate
	case m == UpdatePush && isPC && sharers:
		return PushUpdates
	}
	return Invalidate
}

// HybridStreakLimit is how many consecutive pushed updates a sharer
// absorbs unread before it self-invalidates and leaves the update set
// under UpdatePush: a small saturating per-copy counter is the
// hardware-plausible form of Dovgopol & Rosonke's sharer-stability test.
const HybridStreakLimit = 4

// Protocol is one row of the protocol table.
type Protocol struct {
	name string
	mech Mechanism
}

// Name is the protocol's table key ("adaptive", "mesi", ...).
func (p Protocol) Name() string { return p.name }

// Mechanism is the optional mechanism the protocol runs.
func (p Protocol) Mechanism() Mechanism { return p.mech }

// table holds every protocol, sorted by name.
var table = [...]Protocol{
	// The paper's protocol: the producer-consumer detector steers
	// directory delegation (§2.3) and speculative updates via delayed
	// interventions (§2.4), both sized and enabled by configuration. It
	// is the default, and the reference the fig9/fig10 goldens pin.
	{"adaptive", Delegation},
	// The dynamic self-invalidation baseline (Lebeck & Wood / Lai &
	// Falsafi, compared in the paper's §5): owners of producer-consumer
	// lines downgrade after their write burst, turning later 3-hop reads
	// into 2-hop home hits, on the delayed-intervention interval.
	{"dsi", SelfInvalidation},
	// Hybrid update/invalidate after Dovgopol & Rosonke: producer-consumer
	// writes commit at the home and push fresh data to the sharers, so
	// stable consumers read without a miss; a sharer that lets
	// HybridStreakLimit pushes pile up unread self-invalidates, degrading
	// the line back toward write-invalidate.
	{"hybrid", UpdatePush},
	// Plain MESI-style write-invalidate, the paper's own base (an
	// SGI-Origin-like home-based protocol with NACK/retry, no silent
	// exclusive grants): configurations that size delegation or updates
	// are rejected up front.
	{"mesi", None},
}

// Default is the name resolved when no protocol is selected.
const Default = "adaptive"

// ErrUnknown is wrapped by Lookup failures, so callers can classify a
// bad protocol name with errors.Is instead of matching message text.
var ErrUnknown = errors.New("protocol: unknown protocol")

// Lookup resolves a protocol by name. The empty name resolves to the
// default (the paper's adaptive protocol). Failures wrap ErrUnknown and
// list the valid names.
func Lookup(name string) (Protocol, error) {
	if name == "" {
		name = Default
	}
	for _, p := range table {
		if p.name == name {
			return p, nil
		}
	}
	return Protocol{}, fmt.Errorf("%w: %q (have %v)", ErrUnknown, name, Names())
}

// Names returns the protocol names in sorted order.
func Names() []string {
	out := make([]string, len(table))
	for i, p := range table {
		out[i] = p.name
	}
	return out
}

// All returns the protocols in name order.
func All() []Protocol { return append([]Protocol(nil), table[:]...) }
