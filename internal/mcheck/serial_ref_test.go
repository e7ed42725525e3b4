package mcheck

// The reference explorer: plain breadth-first reachability from the
// initial state, single-threaded, map-keyed visited set, no symmetry
// reduction. It is the oracle the engine (ExploreOpts with NoCanon) is
// tested against state for state. Like the engine it does not expand a
// violating state, but it stops at the first eight violations.
func exploreSerial(cfg Config) *Result {
	res := &Result{Workers: 1}
	init := NewState(cfg)
	visited := map[string]struct{}{init.Key(): {}}
	queue := []*State{init}

	for len(queue) > 0 {
		st := queue[0]
		queue[0] = nil
		queue = queue[1:]
		res.States++
		if len(queue) > res.PeakFrontier {
			res.PeakFrontier = len(queue)
		}

		if inv := CheckInvariants(cfg, st); inv != "" {
			res.Violations = append(res.Violations, &Violation{inv, st})
			if len(res.Violations) >= maxReported {
				return res
			}
			continue
		}
		for _, q := range st.Ch {
			if len(q) > res.MaxQueue {
				res.MaxQueue = len(q)
			}
		}
		if delegatedAnywhere(st) {
			res.Delegated++
		}

		succs := Successors(cfg, st)
		res.Transitions += len(succs)
		if len(succs) == 0 {
			if !quiescent(st) {
				res.Deadlocks = append(res.Deadlocks, &Violation{"deadlock-freedom", st})
			}
			continue
		}
		for _, sc := range succs {
			k := sc.State.Key()
			if _, ok := visited[k]; ok {
				res.DedupHits++
				continue
			}
			visited[k] = struct{}{}
			queue = append(queue, sc.State)
		}
	}
	return res
}
