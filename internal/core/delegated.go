package core

import (
	"fmt"

	"pccsim/internal/cache"
	"pccsim/internal/delegate"
	"pccsim/internal/directory"
	"pccsim/internal/msg"
	"pccsim/internal/obs"
	"pccsim/internal/stats"
)

// localDelegated services the producer's own access to a line delegated to
// this node: the read-exclusive flow of Figure 6, run entirely in the local
// hub against the producer-table directory entry.
func (h *Hub) localDelegated(m *mshr, reqType msg.Type) {
	pe := h.prod.Lookup(m.addr)
	if pe == nil {
		// Undelegated while the request sat in the hub queue: reroute.
		h.issue(m)
		return
	}
	e := &pe.Dir

	if !m.wantExcl {
		// Producer re-reading its own delegated line after losing the
		// L2 copy: the pinned RAC entry is the surrogate memory.
		rl := h.rc.Lookup(m.addr)
		if rl == nil {
			panic(fmt.Sprintf("core: node %d delegated line %#x has no RAC master copy",
				h.id, uint64(m.addr)))
		}
		m.viaRAC = true
		h.fill(m, cache.Shared, rl.Version, 0, false)
		return
	}

	if e.UpdatesInFlight > 0 {
		// Writes stay ordered behind outstanding update pushes.
		h.retry(m)
		return
	}

	switch {
	case e.State == directory.Shared:
		h.adaptDelayUpIfRewrite(e)
		consumers := e.Sharers.Clear(h.id)
		h.st.RecordConsumers(consumers.Count())
		setOwner(e, h.id, m.txn, consumers) // §2.4.2: preserve the old sharing vector
		e.UpdateSet = consumers
		h.invalidateSharers(m.addr, consumers, h.id, m.txn)
		m.invalsRemote = !consumers.Empty()
		h.fill(m, cache.Excl, h.producerVersion(m.addr, e, true), consumers.Count(), false)

	case e.State == directory.Excl && e.Owner == h.id:
		// Still exclusive here (intervention has not fired, or the
		// line bounced through the RAC): silent refill.
		rl := h.rc.Lookup(m.addr)
		if rl == nil {
			panic(fmt.Sprintf("core: node %d delegated EXCL line %#x lost its data",
				h.id, uint64(m.addr)))
		}
		m.viaRAC = true
		h.fill(m, cache.Excl, rl.Version, 0, false)

	default:
		panic(fmt.Sprintf("core: delegated entry %#x in state %s owner=%d at node %d",
			uint64(m.addr), e.State, e.Owner, h.id))
	}
}

// delegatedRequest services a remote node's request arriving at the
// delegated home (directly via a consumer-table hint, or forwarded by the
// original home while the line is in DELE).
func (h *Hub) delegatedRequest(req *msg.Message, pe *delegate.ProducerEntry) {
	if h.mshr(req.Addr) != nil {
		// The producer's own write is mid-flight: NACK and retry.
		h.nack(req, false)
		return
	}
	e := &pe.Dir

	switch req.Type {
	case msg.GetShared:
		h.delegatedRead(req, pe)
	case msg.GetExcl, msg.Upgrade:
		// Another node wants ownership: undelegation reason 3
		// (§2.3.3); the request travels home inside the UNDELE.
		if e.UpdatesInFlight > 0 {
			h.nack(req, false)
			return
		}
		h.undelegate(pe, stats.UndelRemoteWrite, 0, req)
	default:
		panic(fmt.Sprintf("core: delegatedRequest got %s", req))
	}
}

// delegatedRead serves a consumer read at the delegated home: the 2-hop
// path delegation exists to create.
func (h *Hub) delegatedRead(req *msg.Message, pe *delegate.ProducerEntry) {
	e := &pe.Dir
	var v uint64
	switch {
	case e.State == directory.Shared:
		e.Sharers = e.Sharers.Set(req.Requester)
		v = h.producerVersion(req.Addr, e, true)

	case e.State == directory.Excl && e.Owner == h.id:
		// Consumer read before the delayed intervention fired: the
		// hub downgrades the processor's copy immediately. A pending
		// intervention timer will still push updates to consumers
		// that have not re-read (fireIntervention's Shared arm).
		h.noteIntervention(req.Addr, h.id, 2)
		h.adaptDelayDown(e) // the delay was too long for this line
		v = h.downgradeLocal(req.Addr, e)
		e.State = directory.Shared
		e.Sharers = msg.Vector{}.Set(h.id).Set(req.Requester)

	default:
		panic(fmt.Sprintf("core: delegatedRead %#x state %s owner=%d",
			uint64(req.Addr), e.State, e.Owner))
	}
	h.emitAfter(h.cfg.DirLatency, msg.Message{
		Type: msg.SharedResponse, Src: h.id, Dst: req.Requester, Addr: req.Addr,
		Requester: req.Requester, Version: v, Txn: req.Txn,
	})
}

// downgradeLocal moves the producer's exclusive copy to Shared and lands
// the data in the pinned RAC entry (the surrogate memory), returning the
// current version.
func (h *Hub) downgradeLocal(addr msg.Addr, e *directory.Entry) uint64 {
	var v uint64
	if l2l := h.l2.Lookup(addr); l2l != nil && l2l.State == cache.Excl {
		l2l.State = cache.Shared
		v = l2l.Version
	} else if rl := h.rc.Lookup(addr); rl != nil {
		return rl.Version // already resident in the RAC
	} else {
		panic(fmt.Sprintf("core: node %d downgrade of %#x found no data", h.id, uint64(addr)))
	}
	if rl, rv, ok := h.rc.Insert(addr, cache.Shared); ok {
		rl.Version = v
		rl.Dirty = true
		h.handleRACVictim(rv)
	}
	return v
}

// armIntervention schedules the delayed intervention for a delegated line
// the producer just wrote (§2.4.1). A fixed, configurable delay stands in
// for a last-write predictor: we simply assume the write burst is over.
func (h *Hub) armIntervention(pe *delegate.ProducerEntry) {
	e := &pe.Dir
	if e.UpdateSet.Clear(h.id).Empty() {
		return // nobody consumed the last round; nothing to push
	}
	h.writeSeq++
	e.WriteSeq = h.writeSeq
	e.UpdatePending = true
	// The timer finds the entry by line when it fires; if the line was
	// undelegated (and perhaps re-delegated) since, the entry there
	// carries another arming's WriteSeq and the timer lapses.
	h.afterNote(h.delayFor(e), opDeleIntervene,
		msg.Message{Type: msg.Intervention, Addr: pe.Addr, Txn: e.WriteSeq})
}

// installDelegation handles a DELEGATE message: the home detected a stable
// producer-consumer pattern on our write and handed us the directory entry
// (§2.3.1). The message doubles as the exclusive reply for the write.
func (h *Hub) installDelegation(m *msg.Message) {
	ms := h.mshr(m.Addr)
	if ms == nil || !ms.wantExcl || ms.txn != m.Txn {
		panic(fmt.Sprintf("core: node %d got unsolicited Delegate for %#x", h.id, uint64(m.Addr)))
	}

	canHost := true
	if h.prod.Len() >= h.prod.Cap() {
		// Make room by undelegating the oldest drained entry
		// (undelegation reason 1).
		victim := h.prod.Oldest(func(pe *delegate.ProducerEntry) bool {
			return pe.Dir.UpdatesInFlight == 0 && h.mshr(pe.Addr) == nil
		})
		if victim == nil {
			canHost = false
		} else {
			h.undelegate(victim, stats.UndelCapacity, 0, nil)
		}
	}

	if canHost {
		pe, evicted := h.prod.Insert(m.Addr, directory.Entry{
			State: directory.Excl, Owner: h.id, OwnerID: h.id,
			Sharers: m.Sharers, UpdateSet: m.Sharers,
			MemVersion: m.Version, PC: true, Pending: msg.None,
		})
		if evicted != nil {
			panic("core: producer table evicted after making room")
		}
		if o := h.obs; o != nil {
			o.Emit(obs.Event{At: h.eng.Now(), Kind: obs.KindDelegateInstall, Node: h.id,
				Addr: m.Addr, Arg: uint64(h.prod.Len())})
		}
		// Pin the surrogate-memory RAC entry (§2.3.1: "pins the
		// corresponding RAC entry so that there is a place to put the
		// data should it be flushed from the processor caches").
		if rl, rv, ok := h.rc.Insert(m.Addr, cache.Shared); ok {
			rl.Version = m.Version
			h.rc.Pin(m.Addr)
			h.handleRACVictim(rv)
		} else {
			// The RAC set is fully pinned: accept the write but
			// hand the delegation straight back (reason 2).
			ms.undelegateOnDone = true
		}
		_ = pe
	} else {
		// No producer-table entry could be freed: complete the write
		// and undelegate immediately afterwards.
		ms.undelegateOnDone = true
	}

	// Complete as an exclusive reply. If we held a Shared copy (upgrade
	// path) its version equals memory's: the home only delegates from
	// the SHARED directory state, where memory is clean.
	v := m.Version
	if l2l := h.l2.Lookup(m.Addr); l2l != nil && l2l.State == cache.Shared {
		v = l2l.Version
	}
	h.fill(ms, cache.Excl, v, m.AckCount, false)
}

// undelegate hands a delegated line back to its home (§2.3.3). The
// producer's copy is downgraded to Shared first so the reported directory
// state is always SHARED{holders}; pendingReq, when non-nil, is a remote
// write that travels home inside the UNDELE message.
func (h *Hub) undelegate(pe *delegate.ProducerEntry, reason stats.UndelegateReason,
	fallbackVersion uint64, pendingReq *msg.Message) {

	e := &pe.Dir
	e.UpdatePending = false // cancel any armed intervention

	wasExcl := e.State == directory.Excl && e.Owner == h.id
	v := fallbackVersion
	if l2l := h.l2.Lookup(pe.Addr); l2l != nil {
		if l2l.State == cache.Excl {
			l2l.State = cache.Shared
		}
		v = l2l.Version
	} else if rl := h.rc.Lookup(pe.Addr); rl != nil {
		v = rl.Version
	}

	haveCopy := h.l2.Lookup(pe.Addr) != nil || h.rc.Lookup(pe.Addr) != nil
	var holders msg.Vector
	if !wasExcl {
		holders = e.Sharers.Clear(h.id)
	}
	if haveCopy {
		holders = holders.Set(h.id)
	}

	// The RAC copy stops being the surrogate memory; keep it as an
	// ordinary clean shared copy, refreshed to the current version (it
	// may predate the last write burst, whose data lives in L2 — and a
	// silent L2 eviction would otherwise expose the stale copy).
	if rl := h.rc.Lookup(pe.Addr); rl != nil {
		rl.Pinned = false
		rl.State = cache.Shared
		rl.Dirty = false
		rl.Version = v
	}

	h.prod.Remove(pe.Addr)
	h.st.RecordUndelegation(reason)
	if o := h.obs; o != nil {
		o.Emit(obs.Event{At: h.eng.Now(), Kind: obs.KindUndelegate, Node: h.id,
			Addr: pe.Addr, Arg: uint64(reason)})
	}

	um := h.newMsg()
	*um = msg.Message{
		Type: msg.Undelegate, Src: h.id, Dst: h.home(pe.Addr), Addr: pe.Addr,
		Requester: msg.None, Version: v, Dirty: true, Sharers: holders,
	}
	if pendingReq != nil {
		um.Requester = pendingReq.Requester
		um.Fwd = pendingReq.Type
		um.Txn = pendingReq.Txn
	}
	h.sendAfter(h.cfg.DirLatency, um)
}

// undelegateNoEntry restores a delegation that was never installed (the
// producer table was saturated with undrained entries when the DELEGATE
// arrived): the freshly written line is downgraded and sent home.
func (h *Hub) undelegateNoEntry(addr msg.Addr, version uint64) {
	var holders msg.Vector
	if l2l := h.l2.Lookup(addr); l2l != nil {
		if l2l.State == cache.Excl {
			l2l.State = cache.Shared
		}
		version = l2l.Version
		holders = holders.Set(h.id)
	}
	h.st.RecordUndelegation(stats.UndelCapacity)
	if o := h.obs; o != nil {
		o.Emit(obs.Event{At: h.eng.Now(), Kind: obs.KindUndelegate, Node: h.id,
			Addr: addr, Arg: uint64(stats.UndelCapacity), Arg2: 1})
	}
	h.emitAfter(h.cfg.DirLatency, msg.Message{
		Type: msg.Undelegate, Src: h.id, Dst: h.home(addr), Addr: addr,
		Requester: msg.None, Version: version, Dirty: true, Sharers: holders,
	})
}
