package mcheck

import (
	"errors"
	"fmt"
)

// Violation is one invariant failure: the invariant's name and the
// violating state. The exploration stores no paths; TraceTo reconstructs
// a counterexample's rule path from the initial state.
type Violation struct {
	Invariant string
	State     *State
}

// ErrStateBound is the class sentinel of a search stopped by
// Options.MaxStates: any *StateBoundError satisfies
// errors.Is(err, ErrStateBound).
var ErrStateBound = errors.New("mcheck: state bound exceeded")

// StateBoundError reports a search that expanded more than Bound states
// and stopped before its fixpoint. A truncated search proves nothing, so
// the Result carrying it is never Ok.
type StateBoundError struct {
	Bound  int // Options.MaxStates
	States int // states expanded before the workers stopped
}

func (e *StateBoundError) Error() string {
	return fmt.Sprintf("%v: bound %d, stopped after %d states", ErrStateBound, e.Bound, e.States)
}

func (e *StateBoundError) Unwrap() error { return ErrStateBound }

// Progress, when non-nil, receives periodic exploration progress
// (states expanded, frontier size, visited size).
var Progress func(states, frontier, visited int)

// Result summarizes an exhaustive reachability analysis.
type Result struct {
	States      int
	Transitions int
	Violations  []*Violation
	Deadlocks   []*Violation
	// MaxQueue is the deepest channel occupancy observed.
	MaxQueue int
	// Delegated counts reachable states with a line delegated — a
	// sanity signal that the exploration actually exercised the
	// extension (bounds that are too tight never reach DELE).
	Delegated int
	// DedupHits counts successor states dropped because their (canonical)
	// key was already in the visited set; PeakFrontier is the largest
	// frontier observed. Together with wall time they make pccverify's
	// stats line and the benchmark's mcheck metrics.
	DedupHits    int
	PeakFrontier int
	// Workers records how many exploration workers ran.
	Workers int
	// Err is non-nil when the search stopped before its fixpoint: a
	// *StateBoundError when Options.MaxStates cut it short. The counts
	// then cover only the states expanded before the stop.
	Err error
}

// Ok reports whether the analysis reached its fixpoint and found no
// violations and no deadlocks.
func (r *Result) Ok() bool {
	return r.Err == nil && len(r.Violations) == 0 && len(r.Deadlocks) == 0
}

func (r *Result) String() string {
	return fmt.Sprintf("states=%d transitions=%d violations=%d deadlocks=%d",
		r.States, r.Transitions, len(r.Violations), len(r.Deadlocks))
}

// delegatedAnywhere reports whether any line of s is in DELE at the home.
func delegatedAnywhere(s *State) bool {
	for l := range s.H {
		if s.H[l].Dir == DD {
			return true
		}
	}
	return false
}

// TraceTo reconstructs a rule path from the initial state to target, for
// counterexample reporting. The goal test is modulo symmetry — the trace
// may land on a symmetric twin of target, which the (symmetric) invariants
// flag identically — but the search itself runs over concrete states, so
// the returned labels replay from the initial state. It re-runs the BFS
// with parent tracking, so use it only after exploration found a
// violation. The result is deterministic: plain BFS over the concrete
// state graph in rule order, independent of how many workers found the
// violation.
func TraceTo(cfg Config, target *State) []string {
	type link struct {
		parent string
		rule   Rule
	}
	canon := newCanonicalizer(target.nodes(), len(target.H), target.PC != nil)
	goal := string(canon.canonical(target))
	init := NewState(cfg)
	if string(canon.canonical(init)) == goal {
		return nil
	}
	parents := map[string]link{init.Key(): {}}
	queue := []*State{init}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		for _, sc := range Successors(cfg, st) {
			k := sc.State.Key()
			if _, ok := parents[k]; ok {
				continue
			}
			parents[k] = link{st.Key(), sc.Rule}
			if string(canon.canonical(sc.State)) == goal {
				var path []string
				for k != init.Key() {
					l := parents[k]
					path = append([]string{l.rule.String()}, path...)
					k = l.parent
				}
				return path
			}
			queue = append(queue, sc.State)
		}
	}
	return nil
}

// quiescent reports whether a terminal state is a legitimate fixpoint: no
// in-flight messages, no outstanding requests, no pending pushes on any
// line.
func quiescent(s *State) bool {
	for _, q := range s.Ch {
		if len(q) != 0 {
			return false
		}
	}
	for i := range s.N {
		n := &s.N[i]
		if n.Mshr != MNone || n.PInFlt != 0 {
			return false
		}
	}
	for l := range s.H {
		if s.H[l].Dir == DBS || s.H[l].Dir == DBX {
			return false
		}
	}
	return true
}

// CheckInvariants evaluates the paper's invariants on one state, returning
// the name of the first violated invariant or "". Each line is checked
// independently (the invariants are per-line properties); multi-line
// configurations prefix the line to the name.
func CheckInvariants(cfg Config, s *State) string {
	lines := len(s.H)
	for l := 0; l < lines; l++ {
		if v := checkLineInvariants(s, l); v != "" {
			if lines > 1 {
				return fmt.Sprintf("L%d:%s", l, v)
			}
			return v
		}
	}
	return ""
}

func checkLineInvariants(s *State, l int) string {
	n := s.nodes()
	// Invariant 1 — "single writer exists" (the Murphi DASH invariant):
	// at most one node holds the line exclusively, and no other node
	// holds any readable copy while one does.
	owner := -1
	for i := 0; i < n; i++ {
		if s.node(l, i).Cache == CE {
			if owner >= 0 {
				return "single-writer (two exclusive holders)"
			}
			owner = i
		}
	}
	if owner >= 0 {
		for i := 0; i < n; i++ {
			if i == owner {
				continue
			}
			if s.node(l, i).Cache != CI {
				return "single-writer (copy beside the owner)"
			}
			if s.node(l, i).RACOk {
				return "single-writer (RAC copy beside the owner)"
			}
		}
	}

	// Invariant 2 — data-value coherence: every readable copy holds the
	// latest written version. (Write-invalidate with acks collected
	// before commit makes this exact, not just eventual; see the
	// argument in DESIGN.md §4.)
	latest := s.Latest[l]
	for i := 0; i < n; i++ {
		nd := s.node(l, i)
		if nd.Cache != CI && nd.Val != latest {
			return fmt.Sprintf("data-value (node %d caches v%d, latest v%d)", i, nd.Val, latest)
		}
		if nd.RACOk && nd.RACVal != latest {
			// The producer's pinned surrogate-memory copy is stale by
			// design while the line is exclusive at the producer: the
			// cache copy shadows it for every read, and the delayed
			// intervention refreshes it before the downgrade exposes
			// it. Any other stale RAC copy is a real violation.
			if !(nd.HasProd && nd.PDir == DE) {
				return fmt.Sprintf("data-value (node %d RAC has v%d, latest v%d)", i, nd.RACVal, latest)
			}
		}
	}

	// Invariant 3 — "consistency within the directory": a home entry in
	// UNOWNED/SHARED must not coexist with an exclusive holder, and in
	// those states memory must hold the latest data.
	h := &s.H[l]
	if (h.Dir == DU || h.Dir == DS) && owner >= 0 {
		return fmt.Sprintf("directory (home %s with exclusive holder %d)", h.Dir, owner)
	}
	if (h.Dir == DU || h.Dir == DS) && h.MemVal != latest {
		return fmt.Sprintf("directory (home %s memory v%d, latest v%d)", h.Dir, h.MemVal, latest)
	}
	// An exclusive holder must be the registered owner of an exclusive
	// or delegated entry. A busy entry is mid-transfer away from its
	// owner; a delegated producer never grants E to another node (a
	// consumer's GetX undelegates first).
	if owner >= 0 && (h.Dir == DE || h.Dir == DD) && int(h.Owner) != owner {
		return fmt.Sprintf("directory (node %d exclusive, home %s owner %d)", owner, h.Dir, h.Owner)
	}

	// Invariant 4 — delegation consistency: while the home is in DELE,
	// nothing else claims the producer role, and vice versa at most one
	// producer-table entry exists for the line.
	producers := 0
	for i := 0; i < n; i++ {
		if s.node(l, i).HasProd {
			producers++
			if h.Dir != DD {
				// Legal transient: the UNDELE is in flight. Then the
				// home must still be DELE... it is not, so the entry
				// must be freshly installed while DELEGATE was in
				// flight — but installs only happen on delivery,
				// after the home entered DELE. Violation.
				return fmt.Sprintf("delegation (node %d has entry, home %s)", i, h.Dir)
			}
			if int(h.Owner) != i {
				return fmt.Sprintf("delegation (entry at %d, home delegated to %d)", i, h.Owner)
			}
		}
	}
	if producers > 1 {
		return "delegation (two producer entries)"
	}
	return ""
}
