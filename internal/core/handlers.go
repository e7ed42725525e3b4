package core

import (
	"fmt"

	"pccsim/internal/cache"
	"pccsim/internal/msg"
	"pccsim/internal/protocol"
	"pccsim/internal/rac"
)

// dispatch is the hub's message handler: every packet delivered to this
// node (and every hub-internal self-send) lands here. Messages are pooled:
// once the protocol handlers are done with one it returns to the engine's
// free list, unless a handler retained it (a deferred intervention or
// transfer parked in an MSHR until our own fill completes).
func (h *Hub) dispatch(m *msg.Message) {
	if h.handle(m) {
		h.eng.FreeMsg(m)
	}
}

// handle runs the protocol action for m and reports whether the message is
// finished (true: return it to the pool).
func (h *Hub) handle(m *msg.Message) bool {
	switch m.Type {
	case msg.GetShared, msg.GetExcl, msg.Upgrade:
		h.request(m)
	case msg.Intervention:
		return !h.ownerIntervention(m)
	case msg.TransferReq:
		return !h.ownerTransfer(m)
	case msg.Invalidate:
		h.ownerInvalidate(m)
	case msg.InvAck:
		if ms := h.mshr(m.Addr); ms != nil && ms.txn == m.Txn {
			ms.acksGot++
			h.tryComplete(ms)
		}
	case msg.SharedReply, msg.SharedResponse:
		h.replyData(m, cache.Shared)
	case msg.ExclReply, msg.ExclResponse:
		h.replyData(m, cache.Excl)
	case msg.UpgradeAck:
		h.upgradeAck(m)
	case msg.SharedWriteback:
		h.homeSharedWriteback(m)
	case msg.TransferAck:
		h.homeTransferAck(m)
	case msg.Writeback:
		h.homeWriteback(m)
	case msg.EagerWriteback:
		h.homeEagerWriteback(m)
	case msg.WBAck:
		// Writebacks are fire-and-forget in this model.
	case msg.Nack, msg.NackNotHome:
		if m.Type == msg.NackNotHome && h.cons != nil {
			h.cons.Remove(m.Addr)
		}
		if ms := h.mshr(m.Addr); ms != nil && ms.txn == m.Txn {
			h.retry(ms)
		}
	case msg.Delegate:
		h.installDelegation(m)
	case msg.Undelegate:
		h.homeUndelegate(m)
	case msg.UndelegateAck:
		// The producer already dropped its entry when it undelegated.
	case msg.NewHomeHint:
		if h.cons != nil {
			h.cons.Insert(m.Addr, m.Owner)
		}
	case msg.Update:
		h.consumerUpdate(m)
	case msg.UpdateData:
		h.hybridUpdateData(m)
	case msg.UpdateAck:
		h.homeUpdateAck(m)
	case msg.UpdateGrant:
		h.hybridUpdateGrant(m)
	default:
		panic(fmt.Sprintf("core: node %d cannot dispatch %s", h.id, m))
	}
	return true
}

// request routes an incoming coherence request: delegated lines are served
// by the local delegate cache, locally homed lines by the directory, and
// anything else is NACKed (stale consumer-table hint or a request that
// crossed an undelegation).
func (h *Hub) request(m *msg.Message) {
	if h.prod != nil {
		if pe := h.prod.Peek(m.Addr); pe != nil {
			h.delegatedRequest(m, pe)
			return
		}
	}
	if home, ok := h.mm.HomeIfPlaced(m.Addr); ok && home == h.id {
		h.homeRequest(m)
		return
	}
	// Stale hint (direct request): tell the requester to drop it.
	// A request forwarded by the home (src != requester) raced an
	// in-flight DELEGATE or UNDELEGATE: plain NACK, the retry resolves.
	h.nack(m, m.Src == m.Requester)
}

// ownedCopy starts serving an Intervention or TransferReq m. It parks m
// in our MSHR when m refers to the very ownership our in-flight fill
// establishes (the home serialized us first), to be serviced right after
// the fill lands. Otherwise it finds our exclusive copy of epoch
// m.GrantTxn in L2 or, failing that, in the unpinned RAC; with neither,
// the epoch already ended with our crossing writeback and the home
// completes the pending request from the written-back data. w is the
// way of the copy it found, in L2 or in the RAC.
func (h *Hub) ownedCopy(m *msg.Message) (parked bool, l2l *cache.Line, rl *rac.Line, w cache.Way) {
	if ms := h.mshr(m.Addr); ms != nil && ms.wantExcl && ms.txn == m.GrantTxn {
		ms.deferred = m
		return true, nil, nil, 0
	}
	if l2l, w := h.l2.LookupWay(m.Addr); l2l != nil && l2l.State == cache.Excl && l2l.Grant == m.GrantTxn {
		return false, l2l, nil, w
	}
	if h.rc != nil {
		if rl, w := h.rc.LookupWay(m.Addr); rl != nil && rl.State == cache.Excl && !rl.Pinned &&
			rl.Grant == m.GrantTxn {
			return false, nil, rl, w
		}
	}
	return false, nil, nil, 0
}

// ownerIntervention downgrades our exclusive copy for a 3-hop read: data
// goes to the requester and, as a shared writeback, to the home (Figure 1).
// It reports whether the message was retained (parked in an MSHR).
func (h *Hub) ownerIntervention(m *msg.Message) bool {
	parked, l2l, rl, _ := h.ownedCopy(m)
	var v uint64
	if l2l != nil {
		l2l.State = cache.Shared
		l2l.Dirty = false // the shared writeback cleans it
		v = l2l.Version
	} else if rl != nil {
		rl.State = cache.Shared
		rl.Dirty = false
		v = rl.Version
	} else {
		return parked
	}
	h.emit(msg.Message{
		Type: msg.SharedResponse, Src: h.id, Dst: m.Requester, Addr: m.Addr,
		Requester: m.Requester, Version: v, Txn: m.Txn,
	})
	h.emit(msg.Message{
		Type: msg.SharedWriteback, Src: h.id, Dst: m.Src, Addr: m.Addr,
		Requester: m.Requester, Version: v,
	})
	return false
}

// ownerTransfer hands our exclusive copy to a new owner (3-hop write); it
// reports whether the message was retained (parked in an MSHR).
func (h *Hub) ownerTransfer(m *msg.Message) bool {
	parked, l2l, rl, w := h.ownedCopy(m)
	var v uint64
	if l2l != nil {
		v = l2l.Version
		h.dropL1(h.l2.InvalidateAt(w))
	} else if rl != nil {
		v = rl.Version
		h.rc.InvalidateAt(w)
	} else {
		return parked
	}
	h.emit(msg.Message{
		Type: msg.ExclResponse, Src: h.id, Dst: m.Requester, Addr: m.Addr,
		Requester: m.Requester, Version: v, Txn: m.Txn,
	})
	h.emit(msg.Message{
		Type: msg.TransferAck, Src: h.id, Dst: m.Src, Addr: m.Addr,
		Requester: m.Requester, Txn: m.Txn,
	})
	return false
}

// ownerInvalidate drops our shared copy and acknowledges directly to the
// writer collecting the acks.
func (h *Hub) ownerInvalidate(m *msg.Message) {
	if v := h.l2.Invalidate(m.Addr); v.State != cache.Invalid {
		if v.State == cache.Excl && h.cfg.CheckInvariants {
			panic(fmt.Sprintf("core: node %d got Invalidate for EXCL line %#x", h.id, uint64(m.Addr)))
		}
		h.dropL1(v)
	}
	h.dropRACCopy(m.Addr)
	if ms := h.mshr(m.Addr); ms != nil {
		// The data reply racing this invalidation may still be used
		// once but must not be cached (see mshr.invalidated).
		ms.invalidated = true
	}
	h.emit(msg.Message{
		Type: msg.InvAck, Src: h.id, Dst: m.Requester, Addr: m.Addr,
		Requester: m.Requester, Txn: m.Txn,
	})
}

// fill lands a transaction's data in its MSHR: version, to be cached in
// state st, with acks invalidation acknowledgements to collect before the
// access completes (pcHint: see mshr.pcHint).
func (h *Hub) fill(ms *mshr, st cache.State, version uint64, acks int, pcHint bool) {
	ms.dataReady = true
	ms.version = version
	ms.fillState = st
	ms.pcHint = pcHint
	if ms.acksNeeded < 0 {
		ms.acksNeeded = 0
	}
	if acks > 0 {
		ms.acksNeeded = acks
	}
	h.tryComplete(ms)
}

// replyData lands a data reply in the waiting MSHR. A reply arriving from
// somewhere other than where the request was sent means the (delegated)
// home forwarded it to a third-party owner: one extra network leg.
func (h *Hub) replyData(m *msg.Message, st cache.State) {
	ms := h.mshr(m.Addr)
	if ms == nil || ms.txn != m.Txn {
		return // satisfied earlier (e.g. by a speculative update)
	}
	if m.Src != ms.target {
		ms.ownerForwarded = true
	}
	h.fill(ms, st, m.Version, m.AckCount, m.PCHint)
}

// upgradeAck grants ownership over the Shared copy we already hold.
func (h *Hub) upgradeAck(m *msg.Message) {
	ms := h.mshr(m.Addr)
	if ms == nil || ms.txn != m.Txn {
		return
	}
	// No invalidation can target us between the home's grant and this
	// ack, but our own L2 may have evicted the Shared copy: the MSHR's
	// stashed version is then authoritative (it equals memory's — the
	// home only grants upgrades from the clean SHARED state).
	ver := ms.upgVer
	if l2l := h.l2.Lookup(m.Addr); l2l != nil {
		if l2l.State != cache.Shared {
			panic(fmt.Sprintf("core: node %d UpgradeAck for %#x in state %s",
				h.id, uint64(m.Addr), l2l.State))
		}
		ver = l2l.Version
	}
	h.fill(ms, cache.Excl, ver, m.AckCount, m.PCHint)
}

// consumerUpdate lands a speculative push in the local RAC (§2.4.3: "Upon
// receipt of an update, a consumer places the incoming data in the local
// RAC. If the consumer processor has already requested the data, the
// update message is treated as the response.").
func (h *Hub) consumerUpdate(m *msg.Message) {
	// Link-level delivery notification: the producer's hub learns its
	// push was consumed without a protocol-level message (NUMALink-class
	// fabrics acknowledge at the link layer). This is what keeps further
	// writes to the line ordered behind outstanding pushes. It is also
	// the one direct hub-to-hub touch in the protocol: when the producer
	// lives on another shard the call is staged and injected at the next
	// window barrier instead of mutating remote state mid-window.
	if src := h.sys.Hubs[m.Src]; src.eng == h.eng {
		defer src.updateDelivered(m.Addr)
	} else {
		h.sys.deferUpdateDelivered(h.id, m.Src, m.Addr)
	}

	if ms := h.mshr(m.Addr); ms != nil {
		if !ms.wantExcl {
			h.noteUpdateUseful(m.Addr, m.Version)
			h.fill(ms, cache.Shared, m.Version, 0, false)
			return
		}
		// A pending write: the push refreshes the stashed copy an
		// in-flight Upgrade would otherwise complete against. The home
		// may have invalidated our SHARED copy and then re-added us to
		// the sharing vector with this very push — in which case it
		// will grant the (delayed) upgrade, and the pushed version,
		// not the stale stash, is the copy that grant covers.
		if m.Version > ms.upgVer {
			ms.upgVer = m.Version
		}
	}
	if l2l := h.l2.Lookup(m.Addr); l2l != nil {
		return // already re-read it: the push was unnecessary
	}
	if h.rc == nil {
		h.noteUpdateWasted(m.Addr)
		return
	}
	rl, rv, ok := h.rc.Insert(m.Addr, cache.Shared)
	if !ok {
		h.noteUpdateWasted(m.Addr)
		return
	}
	rl.Version = m.Version
	rl.FromUpdate = true
	h.handleRACVictim(rv)
}

// hybridUpdateData applies a hybrid update push at a sharer and
// acknowledges to the home, reporting whether this node still holds a
// copy. Every delivery acks exactly once — the home's round accounting
// (directory.Entry.UpdatesInFlight) depends on it.
func (h *Hub) hybridUpdateData(m *msg.Message) {
	if ms := h.mshr(m.Addr); ms != nil {
		if !ms.wantExcl {
			// A pending read: the push is the response, and the
			// freshest one — a data reply racing it carries an older
			// version and is dropped by its transaction number.
			h.noteUpdateUseful(m.Addr, m.Version)
			h.hybridAck(m, true)
			h.fill(ms, cache.Shared, m.Version, 0, false)
			return
		}
		// A pending write that lost the race to this round: refresh the
		// stashed copy a later grant would complete against.
		if m.Version > ms.upgVer {
			ms.upgVer = m.Version
		}
	}
	kept := false
	if l2l, w := h.l2.LookupWay(m.Addr); l2l != nil && l2l.State == cache.Shared {
		if m.Version > l2l.Version {
			l2l.Version = m.Version
			l2l.Streak++
		}
		if h.mech == protocol.UpdatePush && l2l.Streak >= protocol.HybridStreakLimit {
			// Nothing between these pushes was read locally: this node
			// is not consuming the line. Self-invalidate and leave the
			// update set, degrading the line back toward
			// write-invalidate for us.
			h.st.UpdatesWasted += uint64(l2l.Streak)
			h.dropL1(h.l2.InvalidateAt(w))
		} else {
			kept = true
		}
	} else {
		// A victim-cached copy: drop it with the presence bit rather
		// than track streaks in the RAC — keeping it stale after the bit
		// clears would orphan it.
		h.dropRACCopy(m.Addr)
	}
	if ms := h.mshr(m.Addr); ms != nil && !kept {
		// The home drops us from the sharers on this ack, so a grant
		// of our pending write that it overtook must not be cached.
		ms.invalidated = true
	}
	h.hybridAck(m, kept)
}

// hybridAck acknowledges a hybrid update push to the home.
func (h *Hub) hybridAck(m *msg.Message, kept bool) {
	h.emit(msg.Message{
		Type: msg.UpdateAck, Src: h.id, Dst: m.Src, Addr: m.Addr,
		Requester: m.Requester, Txn: m.Txn, Kept: kept,
	})
}

// hybridUpdateGrant completes the writer's hybrid shared write: the
// store already committed at the home, so the fill is a clean Shared
// copy of the new version — no local store, no ownership epoch.
func (h *Hub) hybridUpdateGrant(m *msg.Message) {
	ms := h.mshr(m.Addr)
	if ms == nil || ms.txn != m.Txn {
		return
	}
	ms.updateWrite = true
	h.fill(ms, cache.Shared, m.Version, 0, false)
}

// updateDelivered retires one in-flight update push (link-level, see
// consumerUpdate). It takes the line, not the push: a cross-shard
// notification runs at the next window barrier, when the message is long
// since back in its pool.
func (h *Hub) updateDelivered(addr msg.Addr) {
	if h.prod != nil {
		if pe := h.prod.Peek(addr); pe != nil {
			if pe.Dir.UpdatesInFlight > 0 {
				pe.Dir.UpdatesInFlight--
			}
			return
		}
	}
	if home, ok := h.mm.HomeIfPlaced(addr); ok && home == h.id {
		e := h.dir.Entry(addr)
		if e.UpdatesInFlight > 0 {
			e.UpdatesInFlight--
		}
	}
	// Otherwise the line was undelegated while the push was in flight;
	// homeUndelegate already reset the counter.
}
