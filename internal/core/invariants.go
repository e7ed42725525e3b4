package core

import (
	"fmt"

	"pccsim/internal/cache"
	"pccsim/internal/directory"
	"pccsim/internal/msg"
)

// checkInvariants runs the §2.5 runtime checks for one line at the
// completion of an L2-miss transaction: "single writer exists" and
// "consistency within the directory". Version checks (no stale writes, no
// backwards reads) run continuously in global.write/observe.
func (h *Hub) checkInvariants(addr msg.Addr) {
	if !h.cfg.CheckInvariants {
		return
	}
	if h.sys.grp != nil {
		// CheckLine scans every hub's caches, which other shards may be
		// mutating mid-window; defer the check to the next barrier. The
		// invariants are state invariants — they hold at every instant —
		// so checking at the barrier loses only the exact blame instant,
		// not soundness. The version oracle's write/observe panics still
		// fire inline at the faulting event.
		sh := h.sys.shards[h.sys.shardOf[h.id]]
		sh.checks = append(sh.checks, addr)
		return
	}
	h.sys.CheckLine(addr)
}

// CheckLine verifies the coherence invariants for one line across the
// whole machine, panicking on violation. Exported for tests and for the
// simulator-side invariant checking the paper describes.
func (s *System) CheckLine(addr msg.Addr) {
	var exclusive, shared msg.Vector
	for _, hub := range s.Hubs {
		if l := hub.l2.Lookup(addr); l != nil {
			if l.State == cache.Excl {
				exclusive = exclusive.Set(hub.id)
			} else {
				shared = shared.Set(hub.id)
			}
		}
		if hub.rc != nil {
			if rl := hub.rc.Lookup(addr); rl != nil {
				if rl.State == cache.Excl && !rl.Pinned {
					exclusive = exclusive.Set(hub.id)
				} else {
					shared = shared.Set(hub.id)
				}
			}
		}
	}

	// Single-writer-multiple-reader: at most one node exclusive, and no
	// other node may hold any copy while one does.
	if exclusive.Count() > 1 {
		panic(fmt.Sprintf("core: SWMR violation on %#x: exclusive at nodes %v",
			uint64(addr), exclusive.Nodes()))
	}
	if exclusive.Count() == 1 {
		owner := exclusive.Only("CheckLine SWMR owner")
		if others := shared.Clear(owner); !others.Empty() {
			panic(fmt.Sprintf("core: SWMR violation on %#x: owner %d with copies at %v",
				uint64(addr), owner, others.Nodes()))
		}
	}

	// Directory consistency: a home entry in SHARED or UNOWNED must not
	// coexist with an exclusive holder anywhere. (EXCL-without-holder is
	// a legal transient while a writeback is in flight, so it is not
	// checked; DELE entries are validated against the producer table.)
	home, ok := s.Mem.HomeIfPlaced(addr)
	if !ok {
		return
	}
	e := s.Hubs[home].dir.Peek(addr)
	if e == nil {
		return
	}
	switch e.State {
	case directory.Shared, directory.Unowned:
		if !exclusive.Empty() {
			panic(fmt.Sprintf("core: directory inconsistency on %#x: home says %s but node %d is exclusive",
				uint64(addr), e.State, exclusive.Only("CheckLine dir-consistency")))
		}
	case directory.Excl:
		// The owner recorded at the directory must be the only possible
		// exclusive holder. Single is the recoverable form of Only here:
		// a multi-member exclusive set is itself the inconsistency being
		// diagnosed, so the typed error folds into this check's own
		// report instead of crashing inside the msg package.
		if !exclusive.Empty() {
			if holder, err := exclusive.Single(); err != nil || holder != e.Owner {
				panic(fmt.Sprintf("core: directory inconsistency on %#x: home owner %d but exclusive set is %v (%v)",
					uint64(addr), e.Owner, exclusive.Nodes(), err))
			}
		}
	}
}

// CheckAll runs CheckLine over every line the system has touched; tests
// call it after a workload drains.
func (s *System) CheckAll() {
	seen := make(map[msg.Addr]bool)
	for _, hub := range s.Hubs {
		hub.dir.ForEach(func(a msg.Addr, _ *directory.Entry) {
			if !seen[a] {
				seen[a] = true
				s.CheckLine(a)
			}
		})
	}
}

// VerifyValue checks that the newest written version of line is still
// recoverable somewhere in the machine: a cache or RAC copy, the home's
// memory image, or a delegated producer-table entry. Call it only on a
// quiesced system (after the event queue drains); transients legitimately
// keep the latest data in flight. A failure means the protocol lost an
// update — the end-state analogue of the stale-write runtime check. Like
// LatestVersion it needs CheckInvariants.
func (s *System) VerifyValue(line msg.Addr) error {
	latest := s.glob.latestVersion(line)
	if latest == 0 {
		return nil // never written; nothing to lose
	}
	for _, hub := range s.Hubs {
		if l := hub.l2.Lookup(line); l != nil && l.Version == latest {
			return nil
		}
		if hub.rc != nil {
			if rl := hub.rc.Lookup(line); rl != nil && rl.Version == latest {
				return nil
			}
		}
		if hub.prod != nil {
			if pe := hub.prod.Peek(line); pe != nil && pe.Dir.MemVersion == latest {
				return nil
			}
		}
	}
	if home, ok := s.Mem.HomeIfPlaced(line); ok {
		if e := s.Hubs[home].dir.Peek(line); e != nil && e.MemVersion == latest {
			return nil
		}
	}
	return fmt.Errorf("core: lost update on %#x: version %d was written but no cache, RAC or memory copy holds it",
		uint64(line), latest)
}

// VerifyValues runs VerifyValue over every line the data-version oracle has
// seen written. The fuzzer calls it at the end of every case; a clean run
// proves no store was silently dropped by a race. It needs CheckInvariants.
func (s *System) VerifyValues() error {
	for _, line := range s.glob.writtenLines() {
		if err := s.VerifyValue(line); err != nil {
			return err
		}
	}
	return nil
}

// QuiesceCheck verifies that a drained system holds no transient state:
// no MSHRs, no busy directory entries, no in-flight updates.
func (s *System) QuiesceCheck() error {
	for _, hub := range s.Hubs {
		if n := hub.mshrs.Len(); n != 0 {
			return fmt.Errorf("node %d still has %d outstanding transactions", hub.id, n)
		}
		var err error
		hub.dir.ForEach(func(a msg.Addr, e *directory.Entry) {
			if err != nil {
				return
			}
			if e.State.Busy() {
				err = fmt.Errorf("node %d directory entry %#x stuck in %s", hub.id, uint64(a), e.State)
			}
			if e.UpdatesInFlight != 0 {
				err = fmt.Errorf("node %d entry %#x has %d updates in flight", hub.id, uint64(a), e.UpdatesInFlight)
			}
		})
		if err != nil {
			return err
		}
	}
	if s.Net.InFlight() != 0 {
		return fmt.Errorf("%d messages still in flight", s.Net.InFlight())
	}
	return nil
}
