package core

import (
	"fmt"

	"pccsim/internal/cache"
	"pccsim/internal/directory"
	"pccsim/internal/msg"
	"pccsim/internal/obs"
	"pccsim/internal/predictor"
	"pccsim/internal/protocol"
	"pccsim/internal/sim"
)

// homeRequest processes a coherence request at the line's home node.
func (h *Hub) homeRequest(req *msg.Message) {
	e := h.dir.Entry(req.Addr)

	// Busy states and update drains NACK everything (§2.3.4, NACK and
	// retry is how all races resolve).
	if e.State.Busy() {
		h.nack(req, false)
		return
	}

	if e.State == directory.Dele {
		h.forwardToDelegated(req, e)
		return
	}

	det := h.dirc.Detector(req.Addr)
	h.st.DirCacheEvicts = h.dirc.Evicts

	switch req.Type {
	case msg.GetShared:
		h.homeRead(req, e, det)
	case msg.GetExcl, msg.Upgrade:
		h.homeWrite(req, e, det)
	default:
		panic(fmt.Sprintf("core: homeRequest got %s", req))
	}
}

// forwardToDelegated relays a request to the delegated home and tells the
// requester where the line now lives (§2.3.2).
func (h *Hub) forwardToDelegated(req *msg.Message, e *directory.Entry) {
	if req.Requester == e.Owner {
		// The producer raced its own delegation: NACK; on retry it
		// will find itself the acting home (§2.3.4).
		h.nack(req, false)
		return
	}
	h.emitAfter(h.cfg.DirLatency, msg.Message{
		Type: req.Type, Src: h.id, Dst: e.Owner, Addr: req.Addr, Requester: req.Requester,
		Txn: req.Txn,
	})
	if req.Requester != h.id {
		h.emitAfter(h.cfg.DirLatency, msg.Message{
			Type: msg.NewHomeHint, Src: h.id, Dst: req.Requester, Addr: req.Addr,
			Requester: req.Requester, Owner: e.Owner,
		})
	}
}

// homeRead handles GetShared at the home.
func (h *Hub) homeRead(req *msg.Message, e *directory.Entry, det *predictor.Detector) {
	switch e.State {
	case directory.Unowned, directory.Shared:
		if e.State == directory.Unowned {
			e.Sharers = msg.Vector{} // a read overwrites the old sharing vector
		} else if h.mech == protocol.UpdatePush && e.UpdatesInFlight > 0 {
			// A hybrid update round is settling: an ack that drops a
			// sharer must not cross a re-read installing a fresh copy
			// (the cleared presence bit would orphan that copy), so
			// reads wait out the round like writes do.
			h.nack(req, false)
			return
		}
		det.OnRead(req.Requester)
		e.State = directory.Shared
		e.Sharers = e.Sharers.Set(req.Requester)
		h.emitAfter(h.cfg.DirLatency+h.cfg.DRAMLatency, msg.Message{
			Type: msg.SharedReply, Src: h.id, Dst: req.Requester, Addr: req.Addr,
			Requester: req.Requester, Version: e.MemVersion, Txn: req.Txn,
		})
	case directory.Excl:
		if e.Owner == req.Requester {
			// Writeback race: the owner's copy is on its way home.
			h.nack(req, false)
			return
		}
		det.OnRead(req.Requester)
		e.State = directory.BusyShared
		e.Pending = req.Requester
		e.PendingExcl = false
		e.PendingTxn = req.Txn
		h.noteIntervention(req.Addr, e.Owner, 0)
		h.emitAfter(h.cfg.DirLatency, msg.Message{
			Type: msg.Intervention, Src: h.id, Dst: e.Owner, Addr: req.Addr,
			Requester: req.Requester, Txn: req.Txn, GrantTxn: e.OwnerTxn,
		})
	default:
		panic(fmt.Sprintf("core: homeRead in state %s", e.State))
	}
}

// homeWrite handles GetExcl/Upgrade at the home. This is where the
// producer-consumer detector is consulted and delegation triggered (§2.3.1).
func (h *Hub) homeWrite(req *msg.Message, e *directory.Entry, det *predictor.Detector) {
	switch e.State {
	case directory.Unowned:
		if req.Type == msg.Upgrade {
			// The requester's copy must have been invalidated while
			// the upgrade was in flight; make it re-request.
			h.nack(req, false)
			return
		}
		det.OnWrite(req.Requester)
		setOwner(e, req.Requester, req.Txn, msg.Vector{})
		h.emitAfter(h.cfg.DirLatency+h.cfg.DRAMLatency, msg.Message{
			Type: msg.ExclReply, Src: h.id, Dst: req.Requester, Addr: req.Addr,
			Requester: req.Requester, Version: e.MemVersion, AckCount: 0, Txn: req.Txn,
		})

	case directory.Shared:
		if req.Type == msg.Upgrade && !e.Sharers.Has(req.Requester) {
			h.nack(req, false)
			return
		}
		if e.UpdatesInFlight > 0 {
			// Keep updates ordered behind the next invalidation
			// round: defer all writes until pushes are acknowledged.
			h.nack(req, false)
			return
		}
		if marked := det.OnWrite(req.Requester); marked {
			e.PC = true
			h.st.PCLinesMarked++
			if o := h.obs; o != nil {
				o.Emit(obs.Event{At: h.eng.Now(), Kind: obs.KindPCDetect, Node: h.id, Addr: req.Addr})
			}
		}
		sharers := e.Sharers.Clear(req.Requester)
		if det.IsProducerConsumer() {
			h.st.RecordConsumers(sharers.Count())
		}

		// The mechanism decides the shared-write flow: delegation hands
		// a producer-consumer line to its remote writer (§2.3.1), update
		// push sends the write to the stable sharers, and everything
		// else invalidates.
		decision := h.mech.SharedWrite(det.IsProducerConsumer(), req.Requester != h.id, !sharers.Empty())

		if decision == protocol.PushUpdates {
			h.hybridSharedWrite(req, e, sharers)
			return
		}

		// Delegation decision (§2.3.1).
		if decision == protocol.Delegate {
			h.st.Delegations++
			if o := h.obs; o != nil {
				o.Emit(obs.Event{At: h.eng.Now(), Kind: obs.KindDelegate, Node: h.id,
					Addr: req.Addr, Arg: uint64(req.Requester)})
			}
			e.State = directory.Dele
			e.Owner = req.Requester
			h.invalidateSharers(req.Addr, sharers, req.Requester, req.Txn)
			h.emitAfter(h.cfg.DirLatency+h.cfg.DRAMLatency, msg.Message{
				Type: msg.Delegate, Src: h.id, Dst: req.Requester, Addr: req.Addr,
				Requester: req.Requester, Version: e.MemVersion,
				AckCount: sharers.Count(), Sharers: sharers, Txn: req.Txn,
			})
			return
		}

		// Normal write-invalidate path. Per §2.4.2 the old sharing
		// vector is preserved (Sharers) and the writer recorded in
		// OwnerID; UpdateSet snapshots the push targets for the
		// home-is-producer update flow.
		setOwner(e, req.Requester, req.Txn, sharers)
		e.UpdateSet = sharers
		h.invalidateSharers(req.Addr, sharers, req.Requester, req.Txn)
		reply := h.newMsg()
		*reply = msg.Message{
			Src: h.id, Dst: req.Requester, Addr: req.Addr,
			Requester: req.Requester, AckCount: sharers.Count(), Txn: req.Txn,
			PCHint: h.mech == protocol.SelfInvalidation && det.IsProducerConsumer() && req.Requester != h.id,
		}
		if req.Type == msg.Upgrade {
			reply.Type = msg.UpgradeAck
			h.sendAfter(h.cfg.DirLatency, reply)
		} else {
			reply.Type = msg.ExclReply
			reply.Version = e.MemVersion
			h.sendAfter(h.cfg.DirLatency+h.cfg.DRAMLatency, reply)
		}

	case directory.Excl:
		if req.Type == msg.Upgrade {
			h.nack(req, false)
			return
		}
		if e.Owner == req.Requester {
			h.nack(req, false) // writeback race
			return
		}
		det.OnWrite(req.Requester)
		e.State = directory.BusyExcl
		e.Pending = req.Requester
		e.PendingExcl = true
		e.PendingTxn = req.Txn
		h.emitAfter(h.cfg.DirLatency, msg.Message{
			Type: msg.TransferReq, Src: h.id, Dst: e.Owner, Addr: req.Addr,
			Requester: req.Requester, Txn: req.Txn, GrantTxn: e.OwnerTxn,
		})

	default:
		panic(fmt.Sprintf("core: homeWrite in state %s", e.State))
	}
}

// setOwner makes owner, under ownership epoch txn, the exclusive owner of
// e, which keeps the sharing vector sharers.
func setOwner(e *directory.Entry, owner msg.NodeID, txn uint64, sharers msg.Vector) {
	e.State = directory.Excl
	e.Owner = owner
	e.OwnerID = owner
	e.OwnerTxn = txn
	e.Sharers = sharers
}

// invalidateSharers sends invalidations on behalf of requester; the acks
// flow directly to the requester.
func (h *Hub) invalidateSharers(addr msg.Addr, sharers msg.Vector, requester msg.NodeID, txn uint64) {
	for vec := sharers; !vec.Empty(); vec = vec.ClearLowest() {
		h.st.Invalidations++
		h.emitAfter(h.cfg.DirLatency, msg.Message{
			Type: msg.Invalidate, Src: h.id, Dst: vec.Lowest(), Addr: addr,
			Requester: requester, Txn: txn,
		})
	}
}

// homeSharedWriteback completes a 3-hop read: the old owner downgraded and
// sent the home fresh data.
func (h *Hub) homeSharedWriteback(m *msg.Message) {
	e := h.dir.Entry(m.Addr)
	if e.State != directory.BusyShared {
		panic(fmt.Sprintf("core: SharedWriteback in state %s for %#x", e.State, uint64(m.Addr)))
	}
	e.MemVersion = m.Version
	h.finishPendingRead(m.Addr, e, msg.Vector{}.Set(m.Src), false)
}

// homeTransferAck completes a 3-hop ownership transfer. A stale ack — the
// new owner's writeback arrived first and already resolved the transfer —
// is recognized by its transaction number and dropped.
func (h *Hub) homeTransferAck(m *msg.Message) {
	e := h.dir.Entry(m.Addr)
	// Transaction numbers are per-requester counters, so the stale-ack
	// match must be on the (requester, txn) pair.
	if e.State != directory.BusyExcl || e.PendingTxn != m.Txn || e.Pending != m.Requester {
		return
	}
	h.grantPendingWrite(m.Addr, e, msg.Vector{}, false)
}

// finishPendingRead completes a BusyShared entry's pending read once the
// owner's data is home: the reader joins kept, the old owner if it still
// holds a copy. With reply set the home sends the data from memory (the
// owner's writeback crossed the intervention); otherwise the owner did.
// A new read arrived, so the old sharing vector is overwritten (§2.4.2).
func (h *Hub) finishPendingRead(addr msg.Addr, e *directory.Entry, kept msg.Vector, reply bool) {
	reader := e.Pending
	e.State = directory.Shared
	e.Sharers = kept.Set(reader)
	e.Pending = msg.None
	if reply {
		h.emitAfter(h.cfg.DirLatency+h.cfg.DRAMLatency, msg.Message{
			Type: msg.SharedReply, Src: h.id, Dst: reader, Addr: addr,
			Requester: reader, Version: e.MemVersion, Txn: e.PendingTxn,
		})
	}
}

// grantPendingWrite completes a BusyExcl entry's pending write once the
// owner's data is home: the writer becomes the owner. With reply set the
// home sends the data from memory, after invalidating kept, the old
// owner if it still holds a copy (the acks go to the writer); otherwise
// the old owner handed its copy over itself.
func (h *Hub) grantPendingWrite(addr msg.Addr, e *directory.Entry, kept msg.Vector, reply bool) {
	writer := e.Pending
	setOwner(e, writer, e.PendingTxn, msg.Vector{})
	e.Pending = msg.None
	if reply {
		h.invalidateSharers(addr, kept, writer, e.PendingTxn)
		h.emitAfter(h.cfg.DirLatency+h.cfg.DRAMLatency, msg.Message{
			Type: msg.ExclReply, Src: h.id, Dst: writer, Addr: addr,
			Requester: writer, Version: e.MemVersion, AckCount: kept.Count(), Txn: e.PendingTxn,
		})
	}
}

// homeWriteback retires an owner's eviction, including the races where the
// writeback crosses an in-flight intervention: the home then completes the
// pending request itself from the written-back data.
func (h *Hub) homeWriteback(m *msg.Message) {
	e := h.dir.Entry(m.Addr)
	if m.Dirty {
		e.MemVersion = m.Version
	}
	switch {
	case e.State == directory.Excl && e.Owner == m.Src:
		e.State = directory.Unowned
		e.Owner = msg.None

	case e.State == directory.BusyShared && e.Owner == m.Src:
		h.finishPendingRead(m.Addr, e, msg.Vector{}, true)

	case e.State == directory.BusyExcl && e.Owner == m.Src:
		h.grantPendingWrite(m.Addr, e, msg.Vector{}, true)

	case e.State == directory.BusyExcl && e.Pending == m.Src:
		// The transfer's new owner evicted before the old owner's
		// TransferAck reached us: ownership came and went. Fold the
		// data home; the stale TransferAck is dropped by its txn.
		e.State = directory.Unowned
		e.Owner = msg.None
		e.OwnerID = msg.None
		e.Pending = msg.None

	default:
		panic(fmt.Sprintf("core: Writeback from %d in state %s owner=%d for %#x",
			m.Src, e.State, e.Owner, uint64(m.Addr)))
	}
	h.emitAfter(h.cfg.DirLatency, msg.Message{
		Type: msg.WBAck, Src: h.id, Dst: m.Src, Addr: m.Addr, Requester: m.Src,
	})
}

// homeEagerWriteback retires a voluntary downgrade under dynamic
// self-invalidation: the owner keeps a Shared copy and the home becomes
// the fresh data source. Stale eager writebacks (an older ownership epoch)
// are dropped; ones that cross an in-flight intervention (which the owner
// will drop) or transfer complete the pending request from the pushed
// data, invalidating the downgraded owner's retained copy for a transfer.
func (h *Hub) homeEagerWriteback(m *msg.Message) {
	e := h.dir.Entry(m.Addr)
	if e.Owner != m.Src || e.OwnerTxn != m.GrantTxn {
		return // stale epoch (the line moved on)
	}
	owner := msg.Vector{}.Set(m.Src)
	switch e.State {
	case directory.Excl:
		e.MemVersion = m.Version
		e.State = directory.Shared
		e.Sharers = owner
	case directory.BusyShared:
		e.MemVersion = m.Version
		h.finishPendingRead(m.Addr, e, owner, true)
	case directory.BusyExcl:
		e.MemVersion = m.Version
		h.grantPendingWrite(m.Addr, e, owner, true)
	}
}

// homeUndelegate restores directory control to the home (§2.3.3) and, if
// the undelegation was triggered by another node's write, handles that
// request immediately.
func (h *Hub) homeUndelegate(m *msg.Message) {
	e := h.dir.Entry(m.Addr)
	if e.State != directory.Dele || e.Owner != m.Src {
		panic(fmt.Sprintf("core: Undelegate from %d in state %s owner=%d", m.Src, e.State, e.Owner))
	}
	if o := h.obs; o != nil {
		o.Emit(obs.Event{At: h.eng.Now(), Kind: obs.KindUndelegateCommit, Node: h.id,
			Addr: m.Addr, Arg: uint64(m.Src)})
	}
	e.MemVersion = m.Version
	e.Sharers = m.Sharers
	e.Owner = msg.None
	e.OwnerID = msg.None
	e.UpdatePending = false
	e.UpdatesInFlight = 0
	// While the line was delegated the home saw none of its traffic, so
	// the directory-cache detector entry has aged out of its history:
	// the producer-consumer pattern must be re-established before the
	// line can be delegated again. This is what makes an undersized
	// delegate cache expensive (Figure 11).
	if h.dirc.Resident(m.Addr) {
		h.dirc.Detector(m.Addr).Reset()
	}
	if m.Sharers.Empty() {
		e.State = directory.Unowned
	} else {
		e.State = directory.Shared
	}
	h.emitAfter(h.cfg.DirLatency, msg.Message{
		Type: msg.UndelegateAck, Src: h.id, Dst: m.Src, Addr: m.Addr, Requester: m.Src,
	})
	if m.Requester != msg.None && m.Fwd != 0 {
		fwd := h.newMsg()
		*fwd = msg.Message{Type: m.Fwd, Src: h.id, Dst: h.id, Addr: m.Addr,
			Requester: m.Requester, Txn: m.Txn}
		h.eng.AfterMsg(h.cfg.DirLatency, h, opHomeReq, fwd)
	}
}

// armHomeIntervention starts the delayed intervention for a line whose
// producer is the home node itself: §2.4 with the home directory entry
// playing the producer-table role and home memory the surrogate RAC.
func (h *Hub) armHomeIntervention(addr msg.Addr) {
	e := h.dir.Entry(addr)
	if !e.PC || e.UpdateSet.Clear(h.id).Empty() {
		return
	}
	h.writeSeq++
	e.WriteSeq = h.writeSeq
	e.UpdatePending = true
	h.afterNote(h.delayFor(e), opHomeIntervene,
		msg.Message{Type: msg.Intervention, Addr: addr, Txn: e.WriteSeq})
}

// fireIntervention is the delayed-intervention timer body, shared by the
// home-producer and delegated-producer flows. It downgrades the producer's
// still-exclusive copy, lands the data in the surrogate memory (home memory
// or pinned RAC entry), and pushes updates to the last consumer set.
func (h *Hub) fireIntervention(addr msg.Addr, e *directory.Entry, seq uint64, delegated bool) {
	if !e.UpdatePending || e.WriteSeq != seq {
		return // superseded by a newer write or an undelegation
	}
	if h.mshr(addr) != nil {
		// The producer's own next transaction on the line is already in
		// flight (e.g. an upgrade mid-invalidation has flipped the entry
		// to EXCL while the L2 copy is still SHARED). Downgrading now
		// would clobber that transaction's directory state and push a
		// stale version; its completion re-arms the timer instead.
		return
	}
	e.UpdatePending = false
	e.DowngradeAt = uint64(h.eng.Now())

	var v uint64
	switch {
	case e.State == directory.Excl && e.Owner == h.id:
		h.noteIntervention(addr, h.id, 1)
		if l2l := h.l2.Lookup(addr); l2l != nil && l2l.State == cache.Excl {
			l2l.State = cache.Shared
			v = l2l.Version
		} else if delegated {
			rl := h.rc.Lookup(addr)
			if rl == nil {
				return // lost the copy; undelegation is on its way
			}
			v = rl.Version
		} else {
			v = e.MemVersion // evicted: memory already has it
		}
		if delegated {
			if rl, rv, ok := h.rc.Insert(addr, cache.Shared); ok {
				rl.Version = v
				rl.Dirty = true
				h.handleRACVictim(rv)
			}
		} else {
			e.MemVersion = v
		}
		e.State = directory.Shared
		targets := e.UpdateSet.Clear(h.id)
		e.Sharers = targets.Set(h.id)
		h.pushUpdates(addr, e, targets, v)

	case e.State == directory.Shared:
		// An early consumer read already forced the downgrade; push
		// to the consumers that have not re-read yet.
		v = h.producerVersion(addr, e, delegated)
		targets := e.UpdateSet.Clear(h.id).AndNot(e.Sharers)
		e.Sharers = e.Sharers.Or(targets)
		h.pushUpdates(addr, e, targets, v)
	}
}

// producerVersion finds the current data version at the producer.
func (h *Hub) producerVersion(addr msg.Addr, e *directory.Entry, delegated bool) uint64 {
	if l2l := h.l2.Lookup(addr); l2l != nil {
		return l2l.Version
	}
	if delegated {
		if rl := h.rc.Lookup(addr); rl != nil {
			return rl.Version
		}
	}
	return e.MemVersion
}

// delayFor resolves the intervention delay for a line: the configured
// fixed interval, or — with the §5 adaptive extension — the line's learned
// hint.
func (h *Hub) delayFor(e *directory.Entry) sim.Time {
	if h.cfg.AdaptiveDelay && e.DelayHint > 0 {
		return sim.Time(e.DelayHint)
	}
	return h.cfg.interventionDelay()
}

// Adaptation bounds for the learned per-line delay.
const (
	minAdaptiveDelay = 5
	maxAdaptiveDelay = 50_000
	// rewriteWindow: a producer write this soon after a downgrade means
	// the intervention interrupted an ongoing burst.
	rewriteWindow = 400
)

// adaptDelayDown halves a line's delay hint: a consumer read arrived while
// the producer still held the line exclusively, so updates are too late.
func (h *Hub) adaptDelayDown(e *directory.Entry) {
	if !h.cfg.AdaptiveDelay {
		return
	}
	cur := e.DelayHint
	if cur == 0 {
		cur = uint64(h.cfg.interventionDelay())
	}
	cur /= 2
	if cur < minAdaptiveDelay {
		cur = minAdaptiveDelay
	}
	e.DelayHint = cur
}

// adaptDelayUpIfRewrite doubles a line's delay hint when the producer
// rewrites it immediately after a downgrade: the fixed delay cut a write
// burst short and caused an avoidable ownership round trip.
func (h *Hub) adaptDelayUpIfRewrite(e *directory.Entry) {
	if !h.cfg.AdaptiveDelay || e.DowngradeAt == 0 {
		return
	}
	if uint64(h.eng.Now())-e.DowngradeAt > rewriteWindow {
		return
	}
	cur := e.DelayHint
	if cur == 0 {
		cur = uint64(h.cfg.interventionDelay())
	}
	cur *= 2
	if cur > maxAdaptiveDelay {
		cur = maxAdaptiveDelay
	}
	e.DelayHint = cur
}

// hybridSharedWrite commits a shared write at the home and pushes the
// fresh data to the current sharers instead of invalidating them (the
// protocol.PushUpdates decision — hybrid update/invalidate). The line
// stays Shared with home memory as the single ordering point: the
// writer's store commits here on its behalf, each sharer gets an
// UpdateData push and acknowledges to the home whether it kept its copy,
// and the last ack grants the writer a clean Shared copy of the new
// version. Until the round drains, both reads and writes to the line
// NACK (see homeRead/homeWrite), which is what makes clearing a
// dropped sharer's presence bit sound under message reordering.
func (h *Hub) hybridSharedWrite(req *msg.Message, e *directory.Entry, targets msg.Vector) {
	// In the Shared state home memory holds the latest version, so the
	// oracle sees a legal store by the requester.
	v := h.gl.write(req.Requester, req.Addr, e.MemVersion)
	e.MemVersion = v
	e.Sharers = targets.Set(req.Requester)
	e.Pending = req.Requester
	e.PendingExcl = false
	e.PendingTxn = req.Txn
	e.UpdatesInFlight = targets.Count()
	for vec := targets; !vec.Empty(); vec = vec.ClearLowest() {
		c := vec.Lowest()
		h.st.UpdatesSent++
		if o := h.obs; o != nil {
			o.Emit(obs.Event{At: h.eng.Now(), Kind: obs.KindUpdatePush, Node: h.id,
				Addr: req.Addr, Arg: uint64(c), Arg2: v})
		}
		h.emitAfter(h.cfg.DirLatency, msg.Message{
			Type: msg.UpdateData, Src: h.id, Dst: c, Addr: req.Addr,
			Requester: req.Requester, Version: v, Txn: req.Txn,
		})
	}
}

// homeUpdateAck settles one sharer's response to a hybrid update round.
// Sharers that dropped their copy leave the sharing vector; the last ack
// grants the waiting writer.
func (h *Hub) homeUpdateAck(m *msg.Message) {
	e := h.dir.Entry(m.Addr)
	if e.State != directory.Shared || e.UpdatesInFlight == 0 || e.PendingTxn != m.Txn {
		return // not a round this entry is running
	}
	if !m.Kept {
		e.Sharers = e.Sharers.Clear(m.Src)
	}
	e.UpdatesInFlight--
	if e.UpdatesInFlight > 0 {
		return
	}
	writer := e.Pending
	e.Pending = msg.None
	h.emitAfter(h.cfg.DirLatency, msg.Message{
		Type: msg.UpdateGrant, Src: h.id, Dst: writer, Addr: m.Addr,
		Requester: writer, Version: e.MemVersion, Txn: e.PendingTxn,
	})
}

// pushUpdates sends speculative updates to the target set.
func (h *Hub) pushUpdates(addr msg.Addr, e *directory.Entry, targets msg.Vector, v uint64) {
	for vec := targets; !vec.Empty(); vec = vec.ClearLowest() {
		c := vec.Lowest()
		h.st.UpdatesSent++
		e.UpdatesInFlight++
		if o := h.obs; o != nil {
			o.Emit(obs.Event{At: h.eng.Now(), Kind: obs.KindUpdatePush, Node: h.id,
				Addr: addr, Arg: uint64(c), Arg2: v})
		}
		h.emit(msg.Message{
			Type: msg.Update, Src: h.id, Dst: c, Addr: addr, Requester: c, Version: v,
		})
	}
}
