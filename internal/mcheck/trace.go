package mcheck

import "fmt"

// ApplyTrace replays a rule-label sequence from the initial state and
// returns the final state. It is the replay half of counterexample
// emission: a violation's TraceTo labels, stored as corpus JSON, drive the
// model back into the violating state. Invariants are not checked along
// the way — a counterexample trace ends in a violating state by design;
// the caller asserts whatever the repro recorded.
func ApplyTrace(cfg Config, labels []string) (*State, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := NewState(cfg)
	for i, want := range labels {
		found := false
		for _, sc := range Successors(cfg, st) {
			if sc.Rule.String() == want {
				st = sc.State
				found = true
				break
			}
		}
		if !found {
			var avail []string
			for _, sc := range Successors(cfg, st) {
				avail = append(avail, sc.Rule.String())
			}
			return nil, fmt.Errorf("mcheck: trace step %d: rule %q not enabled in %s (available: %v)",
				i, want, st, avail)
		}
	}
	return st, nil
}

// Terminal reports whether s has no enabled transitions under cfg.
func Terminal(cfg Config, s *State) bool { return len(Successors(cfg, s)) == 0 }

// Quiescent reports whether s is a legitimate fixpoint (no in-flight
// messages, no outstanding requests, no busy directories) — a terminal
// state that is not quiescent is a deadlock.
func Quiescent(s *State) bool { return quiescent(s) }
