package core

import (
	"fmt"
	"math/bits"

	"pccsim/internal/addrtab"
	"pccsim/internal/cache"
	"pccsim/internal/delegate"
	"pccsim/internal/directory"
	"pccsim/internal/mem"
	"pccsim/internal/msg"
	"pccsim/internal/network"
	"pccsim/internal/obs"
	"pccsim/internal/protocol"
	"pccsim/internal/rac"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
)

// Hub is one node's coherence engine: the processor-side cache controller
// (L1/L2/RAC, MSHRs) and the directory controller for lines homed here,
// extended with the delegate cache and the speculative-update machinery.
type Hub struct {
	id  msg.NodeID
	sys *System
	cfg *Config
	eng *sim.Engine
	net *network.Network
	mm  *mem.Memory
	st  *stats.Stats
	gl  *global
	// mech is the machine's protocol mechanism, resolved to None when a
	// delegation protocol runs without a delegate cache.
	mech protocol.Mechanism
	// obs receives this hub's protocol events: the system sink when
	// single-engine, the hub's shard staging buffer when sharded, nil
	// when observability is off (AttachObs wires it either way).
	obs *obs.Sink

	// l1 is presence only: each L1 subline holds the L2 way of its
	// line, so a hit reaches the L2 copy without a second search (see
	// cache.Line.L1 for the way back).
	l1      *cache.Array[cache.Way]
	l1Shift uint // log2 of the L1 line size

	l2   *cache.Cache
	rc   *rac.RAC // nil when the RAC is disabled
	dir  *directory.Directory
	dirc *directory.DirCache
	prod *delegate.ProducerTable // nil when delegation is disabled
	cons *delegate.ConsumerTable // nil when delegation is disabled

	// mshrs tracks outstanding L2-miss transactions in an open-addressed
	// line-indexed table (one lookup per delivered message — the hot
	// path PR 2 moved off map[msg.Addr]).
	mshrs  addrtab.Table[*mshr]
	txnSeq uint64
	// spare holds retired MSHRs for reuse, so a miss allocates nothing.
	spare []*mshr
	// writeSeq numbers delayed-intervention armings (directory.Entry
	// WriteSeq), hub-wide, so a timer matches only the arming that
	// scheduled it, whichever entry now holds its line.
	writeSeq uint64
}

// dirCacheWays is the directory cache's associativity.
const dirCacheWays = 4

// Engine event opcodes of the hub (see HandleMsgEvent). The timers carry
// their line, and the arming's sequence or grant number, in a pooled
// message that never goes on the wire; its Type names what the timer
// does, for the watchdog census.
const (
	opDispatch        uint8 = iota // deliver a message to the protocol handlers
	opSend                         // delayed send (directory occupancy, DRAM)
	opHomeReq                      // re-inject a request at the home directory
	opHomeIntervene                // delayed intervention, home producer (Txn = arming)
	opDeleIntervene                // delayed intervention, delegated producer (Txn = arming)
	opSelfDowngrade                // eager downgrade under self-invalidation (GrantTxn)
	opUpdateDelivered              // cross-shard update-delivered notification
)

// HandleMsgEvent is the sim.MsgHandler entry point for the hub's typed
// events.
func (h *Hub) HandleMsgEvent(op uint8, m *msg.Message) {
	switch op {
	case opDispatch:
		h.dispatch(m)
		return
	case opSend:
		h.send(m)
		return
	case opHomeReq:
		h.homeRequest(m)
	case opHomeIntervene:
		h.fireIntervention(m.Addr, h.dir.Peek(m.Addr), m.Txn, false)
	case opDeleIntervene:
		if pe := h.prod.Peek(m.Addr); pe != nil {
			h.fireIntervention(m.Addr, &pe.Dir, m.Txn, true)
		}
	case opSelfDowngrade:
		h.selfDowngrade(m.Addr, m.GrantTxn)
	case opUpdateDelivered:
		h.updateDelivered(m.Addr)
	}
	h.eng.FreeMsg(m)
}

// afterNote schedules op on this hub after delay d with a pooled note
// carrying the timer's operands (see the opcodes).
func (h *Hub) afterNote(d sim.Time, op uint8, note msg.Message) {
	m := h.newMsg()
	*m = note
	h.eng.AfterMsg(d, h, op, m)
}

// newMsg allocates a message from the engine's free list. Every message a
// hub sends is returned to the pool by the receiving hub's dispatch once
// the protocol handlers are done with it.
func (h *Hub) newMsg() *msg.Message { return h.eng.NewMsg() }

// mshr returns the outstanding transaction for line, or nil.
func (h *Hub) mshr(line msg.Addr) *mshr {
	m, _ := h.mshrs.Get(uint64(line))
	return m
}

// mshr tracks one outstanding L2-miss transaction. It is also the
// handler of the transaction's own timers (see HandleMsgEvent).
type mshr struct {
	hub      *Hub
	addr     msg.Addr
	txn      uint64   // current attempt's transaction number
	req      msg.Type // current attempt's request, for a local delegated access
	wantExcl bool
	upgrade  bool   // current attempt is an Upgrade (have a Shared copy)
	upgVer   uint64 // version of the Shared copy at upgrade issue time
	done     sim.MsgHandler
	doneOp   uint8

	// updateWrite marks a write completed by a hybrid UpdateGrant: the
	// store committed at the home, so the fill is a clean Shared copy
	// and the local store/ownership steps are skipped.
	updateWrite bool

	dataReady  bool
	version    uint64
	fillState  cache.State
	acksNeeded int // -1: no ack count received yet
	acksGot    int

	// Classification of the eventual miss (see stats.MissClass).
	homeRemote     bool
	ownerForwarded bool
	viaRAC         bool
	invalsRemote   bool

	// invalidated is set when the home stops counting this node as a
	// sharer while the transaction is pending (an Invalidate arrives, or
	// a hybrid push is acked as dropped). A read's fill or a hybrid
	// UpdateGrant fill then serves the waiting access once, uncached: a
	// reordered message overtook it. Plain exclusive fills ignore it;
	// the home grants ownership only after every older copy is gone.
	invalidated bool

	// target is where the current attempt's request was sent (the home,
	// the delegated home, or this node); the miss classification counts
	// network legs from it.
	target msg.NodeID

	// deferred holds an Intervention or TransferReq that arrived while
	// our own exclusive fill was still in flight; it is serviced right
	// after the fill completes (the home is busy until then).
	deferred *msg.Message

	// pcHint marks a grant for a detected producer-consumer line; under
	// dynamic self-invalidation the owner arms an eager downgrade.
	pcHint bool

	// undelegateOnDone defers an undelegation that could not be hosted
	// (the RAC set for the line is fully pinned) until the write that
	// triggered the delegation completes.
	undelegateOnDone bool

	// waiters are accesses merged into this transaction, replayed when
	// it completes.
	waiters []waiter

	// serial counts the transactions this MSHR has retired. A timer
	// carries it and does nothing if it changed before it fired: the
	// MSHR may by then serve another transaction.
	serial uint32
}

// waiter is an access merged into an outstanding transaction.
type waiter struct {
	addr  msg.Addr
	write bool
	op    uint8
	done  sim.MsgHandler
}

// The MSHR's own timer opcodes.
const (
	opRetry uint8 = iota // re-issue after a NACK's backoff
	opLocal              // run the request at the local delegate cache
)

// HandleMsgEvent runs an MSHR timer scheduled with the MSHR's serial as
// its argument, unless the transaction has retired since.
func (m *mshr) HandleMsgEvent(op uint8, _ *msg.Message) {
	h := m.hub
	if h.eng.Arg() != m.serial {
		return
	}
	if op == opRetry {
		h.issue(m)
	} else {
		h.localDelegated(m, m.req)
	}
}

// newMSHR returns a cleared MSHR for a miss on line, reusing a retired
// one when the hub has a spare.
func (h *Hub) newMSHR(line msg.Addr, write bool, done sim.MsgHandler, doneOp uint8) *mshr {
	var m *mshr
	if n := len(h.spare); n > 0 {
		m, h.spare = h.spare[n-1], h.spare[:n-1]
	} else {
		m = &mshr{hub: h}
	}
	m.addr, m.wantExcl, m.done, m.doneOp, m.acksNeeded = line, write, done, doneOp, -1
	return m
}

// retire returns a completed MSHR to the spare list, cleared of every
// field (the waiters' backing array is kept, emptied) and with its serial
// advanced, so its pending timers lapse.
func (h *Hub) retire(m *mshr) {
	clear(m.waiters)
	*m = mshr{hub: h, serial: m.serial + 1, waiters: m.waiters[:0]}
	h.spare = append(h.spare, m)
}

// class counts the network legs on the transaction's critical path:
// request to the (delegated) home, a forward to a third-party owner, and
// the response. Local writes that only needed remote invalidations are
// 2-hop (invalidation out, acknowledgement back).
func (m *mshr) class() stats.MissClass {
	switch {
	case m.viaRAC:
		return stats.MissLocalRAC
	case m.ownerForwarded && m.homeRemote:
		return stats.MissRemote3Hop
	case m.ownerForwarded || m.homeRemote || m.invalsRemote:
		return stats.MissRemote2Hop
	default:
		return stats.MissLocalHome
	}
}

func newHub(sys *System, id msg.NodeID, st *stats.Stats) *Hub {
	cfg := &sys.Cfg
	h := &Hub{
		id:   id,
		sys:  sys,
		cfg:  cfg,
		eng:  sys.EngFor(id),
		net:  sys.Net,
		mm:   sys.Mem,
		st:   st,
		gl:   sys.glob,
		l2:   cache.New(cfg.L2Bytes, cfg.L2Ways, cfg.L2LineBytes),
		dir:  directory.New(),
		dirc: directory.NewDirCache(cfg.DirCacheEntries, dirCacheWays),
	}
	h.l1 = cache.NewArray[cache.Way](cfg.L1Bytes/(cfg.L1Ways*cfg.L1LineBytes), cfg.L1Ways, cfg.L1LineBytes)
	h.l1Shift = uint(bits.TrailingZeros(uint(cfg.L1LineBytes)))
	p, _ := protocol.Lookup(cfg.Protocol) // Validate resolved the name
	h.mech = p.Mechanism()
	if cfg.RACBytes > 0 {
		h.rc = rac.New(cfg.RACBytes, cfg.RACWays, cfg.L2LineBytes)
	}
	if cfg.DelegateEntries > 0 {
		h.prod = delegate.NewProducerTable(cfg.DelegateEntries)
		h.cons = delegate.NewConsumerTable(cfg.consumerEntries())
	} else if h.mech == protocol.Delegation {
		h.mech = protocol.None // no delegate cache: nothing to delegate to
	}
	if cfg.DetectorWriters == 2 {
		h.dirc.SetPairMode(true)
	}
	sys.Net.Register(id, h.dispatch)
	return h
}

// ID returns the node identifier.
func (h *Hub) ID() msg.NodeID { return h.id }

// Outstanding reports the number of in-flight L2 miss transactions.
func (h *Hub) Outstanding() int { return h.mshrs.Len() }

// send routes a message; node-to-self transfers use the hub-internal
// crossbar and are not network traffic.
func (h *Hub) send(m *msg.Message) {
	if m.Dst == h.id {
		h.eng.AfterMsg(h.cfg.Network.LocalLatency, h, opDispatch, m)
		return
	}
	h.net.Send(m)
}

// sendAfter delays a send (directory occupancy, DRAM access).
func (h *Hub) sendAfter(d sim.Time, m *msg.Message) {
	h.eng.AfterMsg(d, h, opSend, m)
}

// emit sends a pooled copy of tmpl immediately. The template stays on the
// caller's stack; the wire copy comes from the engine's free list.
func (h *Hub) emit(tmpl msg.Message) {
	m := h.newMsg()
	*m = tmpl
	h.send(m)
}

// emitAfter sends a pooled copy of tmpl after delay d.
func (h *Hub) emitAfter(d sim.Time, tmpl msg.Message) {
	m := h.newMsg()
	*m = tmpl
	h.sendAfter(d, m)
}

// noteUpdateUseful counts a speculative update consumed by a read, in
// both the run statistics and the observability stream.
func (h *Hub) noteUpdateUseful(addr msg.Addr, version uint64) {
	h.st.UpdatesUseful++
	if o := h.obs; o != nil {
		o.Emit(obs.Event{At: h.eng.Now(), Kind: obs.KindUpdateHit, Node: h.id, Addr: addr, Arg2: version})
	}
}

// noteUpdateWasted counts a speculative update that died unread
// (overwritten, evicted, or refused for lack of RAC space).
func (h *Hub) noteUpdateWasted(addr msg.Addr) {
	h.st.UpdatesWasted++
	if o := h.obs; o != nil {
		o.Emit(obs.Event{At: h.eng.Now(), Kind: obs.KindUpdateWaste, Node: h.id, Addr: addr})
	}
}

// noteIntervention counts an intervention downgrading owner's copy of
// line, in both the run statistics and the observability stream (flavour:
// see obs.KindIntervention).
func (h *Hub) noteIntervention(line msg.Addr, owner msg.NodeID, flavour uint64) {
	h.st.Interventions++
	if o := h.obs; o != nil {
		o.Emit(obs.Event{At: h.eng.Now(), Kind: obs.KindIntervention, Node: h.id,
			Addr: line, Arg: uint64(owner), Arg2: flavour})
	}
}

// line returns the L2-line-aligned address of addr.
func (h *Hub) line(addr msg.Addr) msg.Addr { return h.l2.Align(addr) }

// home returns the line's home node, applying first-touch placement.
func (h *Hub) home(addr msg.Addr) msg.NodeID { return h.mm.Home(addr, h.id) }

// Access performs one processor memory operation. The event
// done.HandleMsgEvent(op, nil) runs when the access is architecturally
// complete (data returned for loads, ownership and the store commit for
// stores).
func (h *Hub) Access(addr msg.Addr, write bool, done sim.MsgHandler, op uint8) {
	if write {
		h.st.Stores++
	} else {
		h.st.Loads++
	}
	line := h.line(addr)

	// An L1 hit names the L2 way of its line: inclusion back-invalidates
	// the subline before the line can leave that way.
	l1l, hit := h.l1.Touch(uint64(addr)), false
	var l2l *cache.Line
	var w cache.Way
	if l1l != nil {
		w, hit = *l1l, true
		l2l = h.l2.TouchAt(w)
		if h.cfg.CheckInvariants && (l2l.State == cache.Invalid || l2l.Addr != line) {
			panic(fmt.Sprintf("core: node %d L1 hit without L2 line %#x", h.id, uint64(line)))
		}
	} else {
		l2l, w = h.l2.TouchWay(line)
	}

	// Hit path. Writes additionally require L2 exclusivity (write
	// permission is held at the coherence granularity).
	if l2l != nil {
		if !write || l2l.State == cache.Excl {
			lat := h.cfg.L2Latency
			if hit {
				h.st.L1Hits++
				lat = h.cfg.L1Latency
			} else {
				h.st.L2Hits++
			}
			if write {
				h.doStore(l2l)
			} else if h.mech == protocol.UpdatePush && l2l.Streak > 0 {
				// A pushed update is being read: the hybrid protocol's
				// win case (the read would have missed under
				// write-invalidate).
				h.noteUpdateUseful(line, l2l.Version)
				l2l.Streak = 0
			}
			if !hit {
				h.fillL1(addr, w, l2l)
			}
			if !write {
				h.gl.observe(h.id, line, l2l.Version)
			}
			h.eng.AfterMsg(lat, done, op, nil)
			return
		}
		// Shared: upgrade transaction. Updates pushed to this copy and
		// never read die here (the write overwrites them).
		if h.mech == protocol.UpdatePush && l2l.Streak > 0 {
			h.st.UpdatesWasted += uint64(l2l.Streak)
			l2l.Streak = 0
		}
		h.startMiss(addr, line, true, done, op)
		return
	}

	// L2 miss: the RAC may satisfy it locally.
	if h.rc != nil {
		if rl := h.rc.Touch(line); rl != nil {
			if h.serveFromRAC(addr, line, rl, write, done, op) {
				return
			}
		}
	}
	h.startMiss(addr, line, write, done, op)
}

// serveFromRAC tries to satisfy an L2 miss from the local RAC, reporting
// whether the access was fully handled.
func (h *Hub) serveFromRAC(addr, line msg.Addr, rl *rac.Line, write bool, done sim.MsgHandler, op uint8) bool {
	// Writes to delegated lines must run the delegated-home write flow
	// (invalidating consumers); never short-circuit them here.
	if write && h.prod != nil && h.prod.Peek(line) != nil {
		return false
	}
	if !write {
		if rl.FromUpdate && !rl.Consumed {
			rl.Consumed = true
			h.noteUpdateUseful(line, rl.Version)
		}
		// An unpinned copy moves into L2 (fillL2 drops it from the
		// RAC). A pinned master copy stays authoritative in the RAC;
		// the processor-side copy is a clean Shared one.
		st, v, dirty, g := rl.State, rl.Version, rl.Dirty, rl.Grant
		if rl.Pinned {
			st = cache.Shared
			dirty = false
		}
		l2l, w := h.fillL2(line, st, v, dirty)
		l2l.Grant = g
		h.fillL1(addr, w, l2l)
		h.st.RACHits++
		h.st.RecordMiss(stats.MissLocalRAC)
		h.gl.observe(h.id, line, v)
		h.eng.AfterMsg(h.cfg.L2Latency+h.cfg.DirLatency, done, op, nil)
		return true
	}
	if rl.State == cache.Excl && !rl.Pinned {
		// Victim-cached owner copy: silently re-acquire.
		v, g := rl.Version, rl.Grant
		l2l, w := h.fillL2(line, cache.Excl, v, true)
		l2l.Grant = g
		h.doStore(l2l)
		h.fillL1(addr, w, l2l)
		h.st.RACHits++
		h.st.RecordMiss(stats.MissLocalRAC)
		h.eng.AfterMsg(h.cfg.L2Latency+h.cfg.DirLatency, done, op, nil)
		return true
	}
	if rl.State == cache.Shared && !rl.Pinned {
		// Promote to L2 Shared (an unread push dies: we are about to
		// overwrite it), then upgrade for ownership.
		h.fillL2(line, cache.Shared, rl.Version, rl.Dirty)
		h.startMiss(addr, line, true, done, op)
		return true
	}
	return false
}

// doStore commits a store to an exclusively held L2 line.
func (h *Hub) doStore(l2l *cache.Line) {
	l2l.Version = h.gl.write(h.id, l2l.Addr, l2l.Version)
	l2l.Dirty = true
}

// fillL1 installs the L1 subline containing addr, naming way w of L2,
// which holds its line l2l, and marks the subline in l2l's L1 mask. L1
// victims are clean copies; they drop silently.
func (h *Hub) fillL1(addr msg.Addr, w cache.Way, l2l *cache.Line) {
	sub, _, _ := h.l1.FillWay(uint64(addr), nil)
	*sub = w
	l2l.L1 |= h.l1Bit(addr - l2l.Addr)
}

// l1Bit returns the L1 mask bit of the subline at byte offset off of its
// L2 line (see cache.Line.L1).
func (h *Hub) l1Bit(off msg.Addr) uint8 { return 1 << (uint64(off) >> (h.l1Shift & 63) & 7) }

// dropL1 back-invalidates the L1 sublines of the L2 line v (inclusion)
// that its mask marks.
func (h *Hub) dropL1(v cache.Line) {
	if v.L1 == 0 {
		return
	}
	for off := msg.Addr(0); off < msg.Addr(h.cfg.L2LineBytes); off += msg.Addr(h.cfg.L1LineBytes) {
		if v.L1&h.l1Bit(off) != 0 {
			h.l1.Remove(uint64(v.Addr + off))
		}
	}
}

// fillL2 installs a line into L2 and handles the displaced victim,
// returning the line and its way. dirty marks data newer than the home's
// memory copy (e.g. a dirty owner line moving back from the RAC) so a
// later eviction writes it back.
func (h *Hub) fillL2(line msg.Addr, st cache.State, version uint64, dirty bool) (*cache.Line, cache.Way) {
	// L2 and (unpinned) RAC never hold the same line: a stale victim
	// copy left behind would survive later invalidations and transfers
	// that find and act on the L2 copy first. Pinned entries are the
	// delegated master copies, maintained by the delegation flow.
	h.dropRACCopy(line)
	l, w, victim := h.l2.Insert(line, st)
	l.Version = version
	l.Dirty = dirty
	if victim.State != cache.Invalid {
		h.evictL2(victim)
	}
	return l, w
}

// dropRACCopy drops the line's unpinned RAC copy, if any, counting a
// pushed update that dies unread as wasted.
func (h *Hub) dropRACCopy(line msg.Addr) {
	if h.rc == nil {
		return
	}
	if rl, w := h.rc.LookupWay(line); rl != nil && !rl.Pinned {
		if v := h.rc.InvalidateAt(w); v.FromUpdate && !v.Consumed {
			h.noteUpdateWasted(line)
		}
	}
}

// evictL2 disposes of an L2 victim line: back-invalidate L1 (inclusion),
// victim-cache remote lines in the RAC, write dirty data home.
func (h *Hub) evictL2(v cache.Line) {
	h.dropL1(v)

	// Delegated lines: the pinned RAC entry is the surrogate memory.
	if h.prod != nil {
		if pe := h.prod.Peek(v.Addr); pe != nil {
			if v.State == cache.Excl {
				if rl, rv, ok := h.rc.Insert(v.Addr, cache.Excl); ok {
					rl.Version = v.Version
					rl.Dirty = true
					h.handleRACVictim(rv)
					return
				}
				// No room to host the master copy: undelegate
				// with the data (§2.3.3 reason 2).
				h.undelegate(pe, stats.UndelFlush, v.Version, nil)
				return
			}
			// Shared copy of a delegated line: the RAC retains the
			// master copy; nothing to do.
			return
		}
	}

	// A remote line prefers the RAC as a victim cache. A locally homed
	// Shared victim leaves a stale sharer bit; later invalidations to it
	// are acknowledged without a copy.
	if h.rc != nil && h.home(v.Addr) != h.id {
		if rl, rv, ok := h.rc.Insert(v.Addr, v.State); ok {
			rl.Version = v.Version
			rl.Dirty = v.Dirty
			rl.Grant = v.Grant
			h.handleRACVictim(rv)
			return
		}
	}
	if v.State == cache.Excl {
		h.writeBack(v.Addr, v.Version, v.Dirty)
	}
	// Clean Shared victims drop silently.
}

// handleRACVictim disposes of an entry displaced from the RAC; the zero
// Line (nothing displaced) needs nothing.
func (h *Hub) handleRACVictim(v rac.Line) {
	if v.FromUpdate && !v.Consumed {
		h.noteUpdateWasted(v.Addr)
	}
	if v.State == cache.Excl {
		h.writeBack(v.Addr, v.Version, v.Dirty)
	}
}

// writeBack returns an owned line's data to its home. A locally homed
// line retires in place exactly like a writeback message, including the
// races where the directory is busy with an intervention aimed at us.
// (Exclusive RAC entries are victim-cached remote lines or delegated
// lines, which are remote too, so only an L2 victim retires in place.)
func (h *Hub) writeBack(line msg.Addr, version uint64, dirty bool) {
	wb := msg.Message{
		Type: msg.Writeback, Src: h.id, Dst: h.home(line), Addr: line,
		Requester: h.id, Version: version, Dirty: dirty,
	}
	if wb.Dst == h.id {
		h.homeWriteback(&wb)
	} else {
		h.emit(wb)
	}
}

// startMiss begins (or merges into) an L2-miss transaction for line.
func (h *Hub) startMiss(addr, line msg.Addr, write bool, done sim.MsgHandler, op uint8) {
	if m := h.mshr(line); m != nil {
		// Merge: replay the access after the current transaction.
		m.waiters = append(m.waiters, waiter{addr: addr, write: write, op: op, done: done})
		return
	}
	m := h.newMSHR(line, write, done, op)
	h.mshrs.Put(uint64(line), m)
	if o := h.obs; o != nil {
		var w uint64
		if write {
			w = 1
		}
		o.Emit(obs.Event{At: h.eng.Now(), Kind: obs.KindMissStart, Node: h.id, Addr: line,
			Arg: uint64(h.mshrs.Len()), Arg2: w})
	}
	h.issue(m)
}

// issue (re)issues the request for an MSHR, re-evaluating the route each
// time: local producer table first, then consumer-table hint, then home.
func (h *Hub) issue(m *mshr) {
	m.upgrade = false
	m.homeRemote = false
	m.ownerForwarded = false
	m.invalsRemote = false
	m.dataReady = false
	m.acksNeeded = -1
	m.acksGot = 0
	m.invalidated = false
	m.pcHint = false
	m.updateWrite = false
	m.target = h.id
	h.txnSeq++
	m.txn = h.txnSeq

	reqType := msg.GetShared
	if m.wantExcl {
		reqType = msg.GetExcl
		if l := h.l2.Lookup(m.addr); l != nil && l.State == cache.Shared {
			reqType = msg.Upgrade
			m.upgrade = true
			// The MSHR stashes the data (hardware: the CRB holds the
			// line) in case the Shared copy is evicted while the
			// upgrade is in flight.
			m.upgVer = l.Version
		}
	}

	// Delegated to us: handle at the local delegate cache.
	if h.prod != nil {
		if pe := h.prod.Lookup(m.addr); pe != nil {
			m.req = reqType
			h.eng.AfterArg(h.cfg.L2Latency+h.cfg.DirLatency, m, opLocal, m.serial)
			return
		}
	}

	home := h.home(m.addr)
	target := home
	if h.cons != nil && home != h.id {
		if hint, ok := h.cons.Lookup(m.addr); ok && hint != h.id {
			target = hint
		}
	}
	if target != h.id {
		m.homeRemote = true
	}
	m.target = target
	h.emitAfter(h.cfg.L2Latency, msg.Message{
		Type: reqType, Src: h.id, Dst: target, Addr: m.addr, Requester: h.id, Txn: m.txn,
	})
}

// retry schedules a re-issue after a NACK, with a per-node stagger to
// break symmetric livelock between competing requesters.
func (h *Hub) retry(m *mshr) {
	h.st.Retries++
	backoff := h.cfg.RetryBackoff + sim.Time(h.id)*7
	h.eng.AfterArg(backoff, m, opRetry, m.serial)
}

// tryComplete finishes the transaction once data and all invalidation
// acknowledgements have arrived.
func (h *Hub) tryComplete(m *mshr) {
	if !m.dataReady || m.acksNeeded < 0 || m.acksGot < m.acksNeeded {
		return
	}
	h.mshrs.Delete(uint64(m.addr))
	defer h.retire(m)
	cls := m.class()
	h.st.RecordMiss(cls)
	if o := h.obs; o != nil {
		o.Emit(obs.Event{At: h.eng.Now(), Kind: obs.KindMissEnd, Node: h.id, Addr: m.addr,
			Arg: uint64(h.mshrs.Len()), Arg2: uint64(cls)})
	}

	if m.invalidated && (!m.wantExcl || m.updateWrite) {
		// Use-once fill: satisfy the access without caching stale data.
		h.gl.observe(h.id, m.addr, m.version)
		h.eng.AfterMsg(h.cfg.L2Latency, m.done, m.doneOp, nil)
		h.replayWaiters(m)
		h.checkInvariants(m.addr)
		return
	}

	l2l, w := h.fillL2(m.addr, m.fillState, m.version, false)
	if m.wantExcl && !m.updateWrite {
		l2l.Grant = m.txn // ownership epoch (see msg.Message.GrantTxn)
		h.doStore(l2l)
	}
	h.fillL1(m.addr, w, l2l)
	h.gl.observe(h.id, m.addr, l2l.Version)

	// A freshly written producer-consumer line arms the delayed
	// intervention (§2.4.1), which will downgrade the line and push
	// updates. Lines homed here run the same flow against the home
	// directory entry; delegated lines against the producer table.
	// Dynamic self-invalidation: a granted producer-consumer line arms
	// an eager downgrade after the (same) delayed-intervention interval.
	if m.wantExcl && h.mech == protocol.SelfInvalidation && m.pcHint &&
		h.cfg.InterventionDelay != NoIntervention {
		h.armSelfDowngrade(m.addr, l2l.Grant)
	}

	updatesOn := h.cfg.EnableUpdates && h.cfg.InterventionDelay != NoIntervention
	if m.wantExcl && h.prod != nil {
		if pe := h.prod.Peek(m.addr); pe != nil {
			if m.undelegateOnDone {
				h.undelegate(pe, stats.UndelFlush, l2l.Version, nil)
			} else if updatesOn {
				h.armIntervention(pe)
			}
		} else if m.undelegateOnDone {
			h.undelegateNoEntry(m.addr, l2l.Version)
		} else if updatesOn && h.home(m.addr) == h.id {
			h.armHomeIntervention(m.addr)
		}
	}

	h.eng.AfterMsg(h.cfg.L2Latency, m.done, m.doneOp, nil)
	h.replayWaiters(m)

	// Service an intervention or ownership transfer that arrived while
	// our fill was in flight (the home serialized it after us and is
	// busy waiting for this node). The re-dispatch frees it.
	if m.deferred != nil {
		h.eng.AfterMsg(h.cfg.DirLatency, h, opDispatch, m.deferred)
	}

	h.checkInvariants(m.addr)
}

// replayWaiters replays the accesses merged into a completed transaction.
func (h *Hub) replayWaiters(m *mshr) {
	for _, w := range m.waiters {
		h.Access(w.addr, w.write, w.done, w.op)
	}
}

// armSelfDowngrade schedules the dynamic-self-invalidation eager
// downgrade (see selfDowngrade).
func (h *Hub) armSelfDowngrade(line msg.Addr, grant uint64) {
	h.afterNote(h.cfg.interventionDelay(), opSelfDowngrade,
		msg.Message{Type: msg.EagerWriteback, Addr: line, GrantTxn: grant})
}

// selfDowngrade is the eager-downgrade timer body: if we still own the
// line under the same epoch, downgrade to Shared and push the data home.
func (h *Hub) selfDowngrade(line msg.Addr, grant uint64) {
	l2l := h.l2.Lookup(line)
	if l2l == nil || l2l.State != cache.Excl || l2l.Grant != grant {
		return // evicted, transferred, or re-granted since
	}
	l2l.State = cache.Shared
	l2l.Dirty = false // the eager writeback cleans it
	h.st.SelfDowngrades++
	h.emit(msg.Message{
		Type: msg.EagerWriteback, Src: h.id, Dst: h.home(line), Addr: line,
		Requester: h.id, Version: l2l.Version, Dirty: true, GrantTxn: grant,
	})
}

// nack sends a NACK for a request message back to its requester.
func (h *Hub) nack(req *msg.Message, notHome bool) {
	t := msg.Nack
	if notHome {
		t = msg.NackNotHome
	}
	h.emitAfter(h.cfg.DirLatency, msg.Message{
		Type: t, Src: h.id, Dst: req.Requester, Addr: req.Addr, Requester: req.Requester,
		Txn: req.Txn,
	})
}
