package mcheck

import (
	"fmt"

	"pccsim/internal/protocol"
)

// Succ is one labeled successor state.
type Succ struct {
	Rule  Rule
	State *State
}

// RuleKind classifies a transition.
type RuleKind uint8

const (
	RuleIssue          RuleKind = iota // n<Node>.<Msg>-><Dst>: a request leaves
	RuleRACHit                         // n<Node>.RACHit
	RuleDelegatedWrite                 // n<Node>.DelegatedWrite
	RuleEvictWB                        // n<Node>.Evict(WB)
	RuleEvictS                         // n<Node>.EvictS
	RuleIntervention                   // n<Node>.Intervention: delayed intervention fires
	RuleLatePush                       // n<Node>.LatePush
	RuleReadHit                        // n<Node>.ReadHit (litmus)
	RuleReadRAC                        // n<Node>.ReadRAC (litmus)
	RuleWriteHit                       // n<Node>.WriteHit (litmus)
	RuleDeliver                        // <Node>-><Dst>.<Msg>: a channel head is delivered
)

var ruleNames = [...]string{
	RuleRACHit: "RACHit", RuleDelegatedWrite: "DelegatedWrite", RuleEvictWB: "Evict(WB)",
	RuleEvictS: "EvictS", RuleIntervention: "Intervention", RuleLatePush: "LatePush",
	RuleReadHit: "ReadHit", RuleReadRAC: "ReadRAC", RuleWriteHit: "WriteHit",
}

// Rule identifies the transition that produced a successor. Successors
// fills it in without formatting anything; String renders the label that
// traces, ApplyTrace and the corpus files use.
type Rule struct {
	Kind RuleKind
	// Line is the line the label is prefixed with ("L1:"); -1 renders no
	// prefix, as in single-line configurations and litmus script steps.
	Line int8
	Node int8    // acting node; the source of a delivery
	Dst  int8    // destination of an issue or a delivery
	Msg  MsgType // message issued or delivered
}

// String renders the rule label. Single-line labels are byte-identical to
// earlier revisions — regression tests and corpus files pin exact label
// sequences.
func (r Rule) String() string {
	var s string
	switch r.Kind {
	case RuleIssue:
		s = fmt.Sprintf("n%d.%s->%d", r.Node, r.Msg, r.Dst)
	case RuleDeliver:
		s = fmt.Sprintf("%d->%d.%s", r.Node, r.Dst, r.Msg)
	default:
		s = fmt.Sprintf("n%d.%s", r.Node, ruleNames[r.Kind])
	}
	if r.Line >= 0 {
		return fmt.Sprintf("L%d:%s", r.Line, s)
	}
	return s
}

// home is the node whose hub hosts the directory for every modeled line.
const home = 0

// lineTag is Rule.Line for line l: only multi-line configurations prefix
// labels with their line.
func lineTag(lines, l int) int8 {
	if lines > 1 {
		return int8(l)
	}
	return -1
}

// nodeRule is the Rule for a processor-side transition of node i on line
// l with no message attached.
func nodeRule(kind RuleKind, lines, l, i int) Rule {
	return Rule{Kind: kind, Line: lineTag(lines, l), Node: int8(i)}
}

// issueRule is the Rule for node i sending request t to dst on line l.
func issueRule(lines, l, i, dst int, t MsgType) Rule {
	return Rule{Kind: RuleIssue, Line: lineTag(lines, l), Node: int8(i), Dst: int8(dst), Msg: t}
}

// Successors enumerates every enabled transition of s: spontaneous
// processor actions on each line, message deliveries (any channel head),
// and the nondeterministically timed delayed interventions. Every returned
// State is freshly allocated and owned by the caller.
func Successors(cfg Config, s *State) []Succ {
	var g gen
	g.successors(cfg, s)
	return g.out
}

// gen collects the successors of one state. Each rule takes its state
// from clone, mutates it, and keeps it with add; a rule that turns out
// disabled just drops it. States come from pool: the next clone is
// pool[len(out)], so a dropped clone is handed out again, and reset makes
// the whole pool reusable once the caller is done with the previous
// expansion's states. A fresh gen's states are therefore freshly
// allocated and, once it is dropped, owned by the caller.
type gen struct {
	out  []Succ
	pool []*State
}

// clone returns a deep copy of s for one rule to mutate.
func (g *gen) clone(s *State) *State {
	k := len(g.out)
	if k == len(g.pool) {
		g.pool = append(g.pool, &State{})
	}
	s.copyInto(g.pool[k])
	return g.pool[k]
}

// add keeps ns, the most recent clone, as a successor reached by rule.
func (g *gen) add(rule Rule, ns *State) { g.out = append(g.out, Succ{rule, ns}) }

// reset forgets the previous expansion's successors, releasing their
// states back to the pool.
func (g *gen) reset() { g.out = g.out[:0] }

// successors appends every enabled transition of s to g.out.
func (g *gen) successors(cfg Config, s *State) {
	n := s.nodes()
	lines := len(s.H)
	for i := 0; i < n; i++ {
		if cfg.Scripts != nil {
			scriptStep(cfg, s, i, g)
			continue
		}
		for l := 0; l < lines; l++ {
			node := s.node(l, i)

			// Issue a read miss.
			if node.Cache == CI && node.Mshr == MNone && !node.RACOk && canIssue(cfg, s, i) {
				ns := g.clone(s)
				nn := ns.node(l, i)
				nn.Mshr = MWantS
				nn.Inv = false
				ns.Iss[i]++
				nn.Txn = ns.Iss[i]
				dst := home
				if nn.Hint {
					dst = int(nn.HintProd)
				}
				if ns.send(i, dst, Msg{Type: MGetS, Line: int8(l), Req: int8(i), RTxn: nn.Txn}, cfg.QueueDepth) {
					g.add(issueRule(lines, l, i, dst, MGetS), ns)
				}
			}

			// Read a locally available copy (cache or RAC): no transition
			// needed for cache hits; a RAC hit promotes the copy, which is
			// a state change worth exploring.
			if node.Cache == CI && node.Mshr == MNone && node.RACOk {
				ns := g.clone(s)
				nn := ns.node(l, i)
				nn.Cache = CS
				nn.Val = nn.RACVal
				if !nn.HasProd {
					nn.RACOk = false // victim-cache move; pinned master stays
				}
				g.add(nodeRule(RuleRACHit, lines, l, i), ns)
			}

			// Issue a write (GetX on invalid, Upgrade on shared), bounded.
			if s.Writes < int8(cfg.MaxWrites) && node.Mshr == MNone && canIssue(cfg, s, i) {
				if node.HasProd && node.PDir == DS && node.PInFlt == 0 {
					// Producer write on a delegated line (Figure 6).
					ns := g.clone(s)
					nn := ns.node(l, i)
					ns.Iss[i]++
					nn.Txn = ns.Iss[i]
					cons := nn.PShr &^ bit(int8(i))
					nn.PDir = DE
					nn.PUpdSet = cons
					nn.PArmed = false
					nn.Mshr = MWaitAck
					nn.MHave = true
					nn.MVal = nn.val(i)
					nn.Acks = int8(popcount(cons))
					ok := true
					for j := 0; j < n; j++ {
						if cons&bit(int8(j)) != 0 {
							if !ns.send(i, j, Msg{Type: MInval, Line: int8(l), Req: int8(i), RTxn: nn.Txn}, cfg.QueueDepth) {
								ok = false
							}
						}
					}
					if ok {
						if nn.Acks == 0 {
							completeWrite(cfg, ns, l, i)
						}
						g.add(nodeRule(RuleDelegatedWrite, lines, l, i), ns)
					}
				} else if !node.HasProd {
					switch node.Cache {
					case CI:
						ns := g.clone(s)
						nn := ns.node(l, i)
						nn.Mshr = MWantX
						nn.Acks = 0
						nn.MHave = false
						ns.Iss[i]++
						nn.Txn = ns.Iss[i]
						dst := home
						if nn.Hint {
							dst = int(nn.HintProd)
						}
						if ns.send(i, dst, Msg{Type: MGetX, Line: int8(l), Req: int8(i), RTxn: nn.Txn}, cfg.QueueDepth) {
							g.add(issueRule(lines, l, i, dst, MGetX), ns)
						}
					case CS:
						ns := g.clone(s)
						nn := ns.node(l, i)
						nn.Mshr = MWantUpg
						nn.Acks = 0
						nn.MHave = false
						nn.MVal = nn.Val // MSHR stashes the shared data
						ns.Iss[i]++
						nn.Txn = ns.Iss[i]
						dst := home
						if nn.Hint {
							dst = int(nn.HintProd)
						}
						if ns.send(i, dst, Msg{Type: MUpg, Line: int8(l), Req: int8(i), RTxn: nn.Txn}, cfg.QueueDepth) {
							g.add(issueRule(lines, l, i, dst, MUpg), ns)
						}
					}
				}
			}

			// Evict an exclusive line (writeback) — not while transacting
			// and not for delegated lines (those fold into the RAC).
			if node.Cache == CE && node.Mshr == MNone && !node.HasProd {
				ns := g.clone(s)
				nn := ns.node(l, i)
				v := nn.Val
				nn.Cache = CI
				if ns.send(i, home, Msg{Type: MWB, Line: int8(l), Req: int8(i), Val: v}, cfg.QueueDepth) {
					g.add(nodeRule(RuleEvictWB, lines, l, i), ns)
				}
			}

			// Silently evict a shared line.
			if node.Cache == CS && node.Mshr == MNone && !node.HasProd {
				ns := g.clone(s)
				ns.node(l, i).Cache = CI
				g.add(nodeRule(RuleEvictS, lines, l, i), ns)
			}

			// Delayed intervention fires (§2.4.1); its timing is fully
			// nondeterministic in the model.
			genericTimerStep(cfg, s, l, i, g)
		}
	}

	// Message deliveries: the head of any nonempty channel.
	for ci, q := range s.Ch {
		if len(q) == 0 {
			continue
		}
		src, dst := ci/n, ci%n
		ns := g.clone(s)
		// Pop the head in place, so the queue keeps its backing array.
		q := ns.Ch[ci]
		m := q[0]
		ns.Ch[ci] = q[:copy(q, q[1:])]
		if deliver(cfg, ns, src, dst, m) {
			g.add(Rule{Kind: RuleDeliver, Line: lineTag(lines, int(m.Line)), Node: int8(src), Dst: int8(dst), Msg: m.Type}, ns)
		}
	}
}

// val returns the node's current data for the line: cache copy first, then
// the RAC master copy.
func (nd *Node) val(self int) int8 {
	if nd.Cache != CI {
		return nd.Val
	}
	if nd.RACOk {
		return nd.RACVal
	}
	return nd.Val
}

func pushAll(cfg Config, s *State, l, src int, targets uint8, v int8) bool {
	nn := s.node(l, src)
	for j := 0; j < s.nodes(); j++ {
		if targets&bit(int8(j)) != 0 {
			if !s.send(src, j, Msg{Type: MUpd, Line: int8(l), Req: int8(j), Val: v}, cfg.QueueDepth) {
				return false
			}
			nn.PInFlt++
		}
	}
	return true
}

// completeWrite commits a write at node i on line l: the line's version
// advances and, for delegated lines, the delayed intervention is armed.
func completeWrite(cfg Config, s *State, l, i int) {
	nn := s.node(l, i)
	nn.Cache = CE
	if nn.RACOk && !nn.HasProd {
		nn.RACOk = false // cache and unpinned RAC never hold the same line
	}
	nn.GEp = nn.Txn // ownership epoch = the granting request's txn
	s.Latest[l]++
	s.Writes++
	nn.Val = s.Latest[l]
	nn.Mshr = MNone
	nn.MHave = false
	nn.Inv = false
	if nn.HasProd && nn.PUpdSet&^bit(int8(i)) != 0 {
		nn.PArmed = true
	}
}

// completeRead commits a read at node i on line l with version v.
func completeRead(s *State, l, i int, v int8) {
	nn := s.node(l, i)
	if nn.Inv {
		// Use-once fill: satisfy the load, do not cache.
		nn.Inv = false
	} else {
		nn.Cache = CS
		nn.Val = v
		if nn.RACOk && !nn.HasProd {
			nn.RACOk = false // cache and unpinned RAC never hold the same line
		}
	}
	nn.Mshr = MNone
	if s.Obs != nil && l == 0 {
		s.Obs[i] = append(s.Obs[i], v)
	}
}

// scriptStep emits the litmus-mode transition for node i: execute the next
// scripted operation (on line 0) when the node is idle. Local hits complete
// immediately; misses issue protocol transactions whose completions record
// the observation.
func scriptStep(cfg Config, s *State, i int, g *gen) {
	node := s.node(0, i)
	script := cfg.Scripts[i]
	// Delayed interventions fire nondeterministically alongside ops.
	genericTimerStep(cfg, s, 0, i, g)
	if int(s.PC[i]) >= len(script) || node.Mshr != MNone || !canIssue(cfg, s, i) {
		return
	}
	op := script[s.PC[i]]
	if !op.Write {
		// Read: cache hit, RAC hit, or a GetS transaction.
		if node.Cache != CI {
			ns := g.clone(s)
			ns.PC[i]++
			ns.Obs[i] = append(ns.Obs[i], ns.node(0, i).Val)
			g.add(nodeRule(RuleReadHit, 1, 0, i), ns)
			return
		}
		if node.RACOk {
			ns := g.clone(s)
			nn := ns.node(0, i)
			nn.Cache = CS
			nn.Val = nn.RACVal
			if !nn.HasProd {
				nn.RACOk = false
			}
			ns.PC[i]++
			ns.Obs[i] = append(ns.Obs[i], nn.Val)
			g.add(nodeRule(RuleReadRAC, 1, 0, i), ns)
			return
		}
		ns := g.clone(s)
		nn := ns.node(0, i)
		nn.Mshr = MWantS
		nn.Inv = false
		ns.Iss[i]++
		nn.Txn = ns.Iss[i]
		ns.PC[i]++ // the observation lands at completion
		dst := home
		if nn.Hint {
			dst = int(nn.HintProd)
		}
		if ns.send(i, dst, Msg{Type: MGetS, Req: int8(i), RTxn: nn.Txn}, cfg.QueueDepth) {
			g.add(issueRule(1, 0, i, dst, MGetS), ns)
		}
		return
	}
	// Write: silent on an exclusive copy, otherwise a transaction.
	if node.Cache == CE {
		ns := g.clone(s)
		nn := ns.node(0, i)
		ns.Latest[0]++
		ns.Writes++
		nn.Val = ns.Latest[0]
		ns.PC[i]++
		g.add(nodeRule(RuleWriteHit, 1, 0, i), ns)
		return
	}
	if node.HasProd && node.PDir == DS && node.PInFlt == 0 {
		ns := g.clone(s)
		nn := ns.node(0, i)
		ns.Iss[i]++
		nn.Txn = ns.Iss[i]
		cons := nn.PShr &^ bit(int8(i))
		nn.PDir = DE
		nn.PUpdSet = cons
		nn.PArmed = false
		nn.Mshr = MWaitAck
		nn.MHave = true
		nn.MVal = nn.val(i)
		nn.Acks = int8(popcount(cons))
		ok := true
		for j := 0; j < s.nodes(); j++ {
			if cons&bit(int8(j)) != 0 {
				if !ns.send(i, j, Msg{Type: MInval, Req: int8(i), RTxn: nn.Txn}, cfg.QueueDepth) {
					ok = false
				}
			}
		}
		if ok {
			ns.PC[i]++
			if nn.Acks == 0 {
				completeWrite(cfg, ns, 0, i)
			}
			g.add(nodeRule(RuleDelegatedWrite, 1, 0, i), ns)
		}
		return
	}
	ns := g.clone(s)
	nn := ns.node(0, i)
	ns.Iss[i]++
	nn.Txn = ns.Iss[i]
	nn.Acks = 0
	nn.MHave = false
	t := MGetX
	if nn.Cache == CS {
		t = MUpg
		nn.Mshr = MWantUpg
		nn.MVal = nn.Val
	} else {
		nn.Mshr = MWantX
	}
	ns.PC[i]++
	dst := home
	if nn.Hint {
		dst = int(nn.HintProd)
	}
	if ns.send(i, dst, Msg{Type: t, Req: int8(i), RTxn: nn.Txn}, cfg.QueueDepth) {
		g.add(issueRule(1, 0, i, dst, t), ns)
	}
}

// genericTimerStep emits the delayed-intervention transitions for line l
// (shared by both modes).
func genericTimerStep(cfg Config, s *State, l, i int, g *gen) {
	node := s.node(l, i)
	if !(node.HasProd && node.PArmed && node.Mshr == MNone) {
		return
	}
	lines := len(s.H)
	if node.PDir == DE {
		ns := g.clone(s)
		nn := ns.node(l, i)
		nn.PArmed = false
		v := nn.val(i)
		if nn.Cache == CE {
			nn.Cache = CS
		}
		nn.RACOk = true
		nn.RACVal = v
		targets := nn.PUpdSet &^ bit(int8(i))
		nn.PDir = DS
		nn.PShr = targets | bit(int8(i))
		if pushAll(cfg, ns, l, i, targets, v) {
			g.add(nodeRule(RuleIntervention, lines, l, i), ns)
		}
	} else {
		ns := g.clone(s)
		nn := ns.node(l, i)
		nn.PArmed = false
		v := nn.val(i)
		targets := nn.PUpdSet &^ nn.PShr &^ bit(int8(i))
		nn.PShr |= targets
		if pushAll(cfg, ns, l, i, targets, v) {
			g.add(nodeRule(RuleLatePush, lines, l, i), ns)
		}
	}
}

// deliver applies one message at its destination; it reports false when a
// required send would exceed the channel bound (the delivery is then
// disabled rather than half-applied). The message's Line field selects
// which line's state it touches.
func deliver(cfg Config, s *State, src, dst int, m Msg) bool {
	l := int(m.Line)
	nd := s.node(l, dst)
	switch m.Type {
	case MGetS, MGetX, MUpg:
		return deliverRequest(cfg, s, src, dst, m)

	case MInval:
		if nd.Cache == CS {
			nd.Cache = CI
		}
		if nd.RACOk && !nd.HasProd {
			nd.RACOk = false
		}
		if nd.Mshr == MWantS {
			nd.Inv = true
		}
		return s.send(dst, int(m.Req), Msg{Type: MInvAck, Line: m.Line, RTxn: m.RTxn}, cfg.QueueDepth)

	case MInvAck:
		if (nd.Mshr == MWantX || nd.Mshr == MWantUpg || nd.Mshr == MWaitAck) && m.RTxn == nd.Txn {
			nd.Acks--
			if nd.Acks == 0 && nd.MHave {
				completeWrite(cfg, s, l, dst)
			}
		}
		return true

	case MSRep, MSResp:
		if nd.Mshr == MWantS && m.RTxn == nd.Txn {
			completeRead(s, l, dst, m.Val)
		}
		return true

	case MXRep:
		if nd.Mshr == MWantX && m.RTxn == nd.Txn {
			nd.MHave = true
			nd.MVal = m.Val
			nd.Acks += m.Acks
			if nd.Acks == 0 {
				completeWrite(cfg, s, l, dst)
			}
		}
		return true

	case MUpgAck:
		if nd.Mshr == MWantUpg && m.RTxn == nd.Txn {
			nd.MHave = true
			nd.Acks += m.Acks
			if nd.Acks == 0 {
				completeWrite(cfg, s, l, dst)
			}
		}
		return true

	case MXResp:
		if nd.Mshr == MWantX && m.RTxn == nd.Txn {
			nd.MHave = true
			nd.MVal = m.Val
			if nd.Acks == 0 {
				completeWrite(cfg, s, l, dst)
			}
		}
		return true

	case MInt:
		if (nd.Mshr == MWantX || nd.Mshr == MWantUpg || nd.Mshr == MWaitAck) && m.GEp == nd.Txn {
			// The intervention refers to the ownership our in-flight
			// fill establishes: requeue behind it (the implementation
			// parks it in the MSHR; the model re-delivers later —
			// same observable behavior).
			return s.send(src, dst, m, cfg.QueueDepth)
		}
		if nd.Cache == CE && nd.GEp == m.GEp {
			nd.Cache = CS
			v := nd.Val
			if !s.send(dst, int(m.Req), Msg{Type: MSResp, Line: m.Line, Val: v, RTxn: m.RTxn}, cfg.QueueDepth) {
				return false
			}
			return s.send(dst, home, Msg{Type: MSWB, Line: m.Line, Val: v}, cfg.QueueDepth)
		}
		return true // stale epoch: home completes from the crossing WB

	case MXferReq:
		if (nd.Mshr == MWantX || nd.Mshr == MWantUpg || nd.Mshr == MWaitAck) && m.GEp == nd.Txn {
			return s.send(src, dst, m, cfg.QueueDepth)
		}
		if nd.Cache == CE && nd.GEp == m.GEp {
			v := nd.Val
			nd.Cache = CI
			if !s.send(dst, int(m.Req), Msg{Type: MXResp, Line: m.Line, Val: v, RTxn: m.RTxn}, cfg.QueueDepth) {
				return false
			}
			return s.send(dst, home, Msg{Type: MXferAck, Line: m.Line, Req: m.Req, RTxn: m.RTxn}, cfg.QueueDepth)
		}
		return true

	case MSWB:
		h := &s.H[l]
		h.MemVal = m.Val
		h.Dir = DS
		h.Shr = bit(int8(src)) | bit(h.Pend)
		h.Pend = -1
		return true

	case MXferAck:
		h := &s.H[l]
		if h.Dir != DBX || h.PendTxn != m.RTxn || h.Pend != m.Req {
			return true // stale: an early writeback resolved the transfer
		}
		h.Dir = DE
		h.Owner = h.Pend
		h.OwnTxn = h.PendTxn
		h.Shr = 0
		h.Pend = -1
		return true

	case MWB:
		return deliverWriteback(cfg, s, src, m)

	case MNack:
		if nd.Mshr != MNone && nd.Mshr != MWaitAck && m.RTxn == nd.Txn {
			nd.Mshr = MNone
			nd.MHave = false
			nd.Acks = 0
			if s.PC != nil {
				s.PC[dst]-- // litmus mode: retry the scripted op
			}
		}
		return true

	case MNackNH:
		nd.Hint = false
		nd.HintProd = -1
		if nd.Mshr != MNone && nd.Mshr != MWaitAck && m.RTxn == nd.Txn {
			nd.Mshr = MNone
			nd.MHave = false
			nd.Acks = 0
			if s.PC != nil {
				s.PC[dst]--
			}
		}
		return true

	case MHint:
		nd.Hint = true
		nd.HintProd = m.Val // reuse Val as the producer id
		return true

	case MDele:
		if (nd.Mshr != MWantX && nd.Mshr != MWantUpg) || m.RTxn != nd.Txn {
			panic("mcheck: unsolicited delegate")
		}
		// Directory handoff doubling as the exclusive reply.
		nd.HasProd = true
		nd.PDir = DE
		nd.PShr = m.Shr
		nd.PUpdSet = m.Shr
		nd.PInFlt = 0
		nd.PArmed = false
		nd.RACOk = true // pinned surrogate-memory entry
		nd.RACVal = m.Val
		nd.MHave = true
		if nd.Mshr == MWantX {
			nd.MVal = m.Val
		}
		nd.Acks += m.Acks
		if nd.Acks == 0 {
			completeWrite(cfg, s, l, dst)
		} else {
			nd.Mshr = MWaitAck
		}
		return true

	case MUndele:
		h := &s.H[l]
		h.Dir = DS
		if m.Shr == 0 {
			h.Dir = DU
		}
		h.Shr = m.Shr
		h.Owner = -1
		h.MemVal = m.Val
		h.DetW = -1 // detector history lost while delegated
		h.DetRep = 0
		h.DetRd = false
		if m.Fwd != 0 && m.Req >= 0 {
			return deliverRequest(cfg, s, home, home, Msg{Type: m.Fwd, Line: m.Line, Req: m.Req, RTxn: m.RTxn})
		}
		return true

	case MUpd:
		// Link-level delivery notification to the producer.
		if p := s.node(l, src); p.PInFlt > 0 {
			p.PInFlt--
		}
		if nd.Mshr == MWantS {
			completeRead(s, l, dst, m.Val)
			return true
		}
		if nd.Cache == CI && !nd.RACOk {
			nd.RACOk = true
			nd.RACVal = m.Val
		}
		return true
	}
	panic(fmt.Sprintf("mcheck: deliver %s unhandled", m.Type))
}

// deliverRequest routes a coherence request at its destination node:
// delegated lines first, the home directory second, NACK otherwise.
func deliverRequest(cfg Config, s *State, src, dst int, m Msg) bool {
	nd := s.node(int(m.Line), dst)
	if nd.HasProd {
		return delegatedRequest(cfg, s, src, dst, m)
	}
	if dst == home {
		return homeRequest(cfg, s, src, m)
	}
	// Stale hint or a request that crossed an undelegation.
	t := MNack
	if src == int(m.Req) {
		t = MNackNH
	}
	return s.send(dst, int(m.Req), Msg{Type: t, Line: m.Line, RTxn: m.RTxn}, cfg.QueueDepth)
}

func delegatedRequest(cfg Config, s *State, src, dst int, m Msg) bool {
	nd := s.node(int(m.Line), dst)
	req := int(m.Req)
	if req == dst {
		// The producer's own request looped back (hint to self after
		// undelegation+redelegation); treat as a home-side NACK.
		return s.send(dst, req, Msg{Type: MNack, Line: m.Line, RTxn: m.RTxn}, cfg.QueueDepth)
	}
	if nd.Mshr != MNone {
		return s.send(dst, req, Msg{Type: MNack, Line: m.Line, RTxn: m.RTxn}, cfg.QueueDepth)
	}
	switch m.Type {
	case MGetS:
		switch nd.PDir {
		case DS:
			nd.PShr |= bit(int8(req))
			return s.send(dst, req, Msg{Type: MSResp, Line: m.Line, Val: nd.val(dst), RTxn: m.RTxn}, cfg.QueueDepth)
		case DE:
			// Early read: immediate downgrade; an armed timer will
			// push to the remaining consumers later.
			v := nd.val(dst)
			if nd.Cache == CE {
				nd.Cache = CS
			}
			nd.RACOk = true
			nd.RACVal = v
			nd.PDir = DS
			nd.PShr = bit(int8(dst)) | bit(int8(req))
			return s.send(dst, req, Msg{Type: MSResp, Line: m.Line, Val: v, RTxn: m.RTxn}, cfg.QueueDepth)
		}
	case MGetX, MUpg:
		if nd.PInFlt > 0 {
			return s.send(dst, req, Msg{Type: MNack, Line: m.Line, RTxn: m.RTxn}, cfg.QueueDepth)
		}
		// Undelegation reason 3: downgrade our copy, hand the entry
		// and the pending request back to the home.
		v := nd.val(dst)
		if nd.Cache == CE {
			nd.Cache = CS
		}
		holders := uint8(0)
		if nd.PDir == DS {
			holders = nd.PShr &^ bit(int8(dst))
		}
		if nd.Cache != CI || nd.RACOk {
			holders |= bit(int8(dst))
		}
		nd.HasProd = false
		nd.PArmed = false
		// The RAC copy stops being the master; it stays as a clean
		// shared copy refreshed to the current version.
		if nd.RACOk {
			nd.RACVal = v
		}
		return s.send(dst, home, Msg{
			Type: MUndele, Line: m.Line, Val: v, Shr: holders, Fwd: m.Type, Req: m.Req, RTxn: m.RTxn,
		}, cfg.QueueDepth)
	}
	panic("mcheck: delegatedRequest unhandled")
}

func homeRequest(cfg Config, s *State, src int, m Msg) bool {
	l := int(m.Line)
	h := &s.H[l]
	req := int(m.Req)
	if h.Dir == DBS || h.Dir == DBX {
		return s.send(home, req, Msg{Type: MNack, Line: m.Line, RTxn: m.RTxn}, cfg.QueueDepth)
	}
	if h.Dir == DD {
		if int8(req) == h.Owner {
			return s.send(home, req, Msg{Type: MNack, Line: m.Line, RTxn: m.RTxn}, cfg.QueueDepth)
		}
		if !s.send(home, int(h.Owner), m, cfg.QueueDepth) {
			return false
		}
		if req != home {
			return s.send(home, req, Msg{Type: MHint, Line: m.Line, Val: h.Owner}, cfg.QueueDepth)
		}
		return true
	}

	switch m.Type {
	case MGetS:
		if req != int(h.DetW) {
			h.DetRd = true
		}
		switch h.Dir {
		case DU:
			h.Dir = DS
			h.Shr = bit(int8(req))
			return s.send(home, req, Msg{Type: MSRep, Line: m.Line, Val: h.MemVal, RTxn: m.RTxn}, cfg.QueueDepth)
		case DS:
			h.Shr |= bit(int8(req))
			return s.send(home, req, Msg{Type: MSRep, Line: m.Line, Val: h.MemVal, RTxn: m.RTxn}, cfg.QueueDepth)
		case DE:
			if int(h.Owner) == req {
				return s.send(home, req, Msg{Type: MNack, Line: m.Line, RTxn: m.RTxn}, cfg.QueueDepth)
			}
			h.Dir = DBS
			h.Pend = int8(req)
			h.PendX = false
			h.PendTxn = m.RTxn
			return s.send(home, int(h.Owner), Msg{Type: MInt, Line: m.Line, Req: m.Req, RTxn: m.RTxn, GEp: h.OwnTxn}, cfg.QueueDepth)
		}

	case MGetX, MUpg:
		switch h.Dir {
		case DU:
			if m.Type == MUpg {
				return s.send(home, req, Msg{Type: MNack, Line: m.Line, RTxn: m.RTxn}, cfg.QueueDepth)
			}
			detectorWrite(h, req)
			h.Dir = DE
			h.Owner = int8(req)
			h.Shr = 0
			h.OwnTxn = m.RTxn
			return s.send(home, req, Msg{Type: MXRep, Line: m.Line, Val: h.MemVal, RTxn: m.RTxn}, cfg.QueueDepth)
		case DS:
			if m.Type == MUpg && h.Shr&bit(int8(req)) == 0 {
				return s.send(home, req, Msg{Type: MNack, Line: m.Line, RTxn: m.RTxn}, cfg.QueueDepth)
			}
			detectorWrite(h, req)
			sharers := h.Shr &^ bit(int8(req))
			acks := int8(popcount(sharers))
			if cfg.mechanism().SharedWrite(h.DetRep >= cfg.DetThresh, req != home, sharers != 0) == protocol.Delegate {
				h.Dir = DD
				h.Owner = int8(req)
				h.OwnTxn = m.RTxn
				for j := 0; j < s.nodes(); j++ {
					if sharers&bit(int8(j)) != 0 {
						if !s.send(home, j, Msg{Type: MInval, Line: m.Line, Req: m.Req, RTxn: m.RTxn}, cfg.QueueDepth) {
							return false
						}
					}
				}
				return s.send(home, req, Msg{
					Type: MDele, Line: m.Line, Val: h.MemVal, Acks: acks, Shr: sharers, RTxn: m.RTxn,
				}, cfg.QueueDepth)
			}
			h.Dir = DE
			h.Owner = int8(req)
			h.OwnTxn = m.RTxn
			h.Shr = sharers // §2.4.2: old sharing vector preserved
			for j := 0; j < s.nodes(); j++ {
				if sharers&bit(int8(j)) != 0 {
					if !s.send(home, j, Msg{Type: MInval, Line: m.Line, Req: m.Req, RTxn: m.RTxn}, cfg.QueueDepth) {
						return false
					}
				}
			}
			t := MXRep
			if m.Type == MUpg {
				t = MUpgAck
			}
			return s.send(home, req, Msg{Type: t, Line: m.Line, Val: h.MemVal, Acks: acks, RTxn: m.RTxn}, cfg.QueueDepth)
		case DE:
			if m.Type == MUpg || int(h.Owner) == req {
				return s.send(home, req, Msg{Type: MNack, Line: m.Line, RTxn: m.RTxn}, cfg.QueueDepth)
			}
			detectorWrite(h, req)
			h.Dir = DBX
			h.Pend = int8(req)
			h.PendX = true
			h.PendTxn = m.RTxn
			return s.send(home, int(h.Owner), Msg{Type: MXferReq, Line: m.Line, Req: m.Req, RTxn: m.RTxn, GEp: h.OwnTxn}, cfg.QueueDepth)
		}
	}
	panic("mcheck: homeRequest unhandled")
}

func detectorWrite(h *Home, req int) {
	if int(h.DetW) == req && h.DetRd {
		h.DetRep++
	} else if int(h.DetW) != req {
		h.DetRep = 0
	}
	h.DetW = int8(req)
	h.DetRd = false
}

func deliverWriteback(cfg Config, s *State, src int, m Msg) bool {
	h := &s.H[m.Line]
	switch {
	case h.Dir == DE && int(h.Owner) == src:
		h.MemVal = m.Val
		h.Dir = DU
		h.Owner = -1
		return true
	case h.Dir == DBS && int(h.Owner) == src:
		h.MemVal = m.Val
		h.Dir = DS
		pend := h.Pend
		h.Shr = bit(pend)
		h.Pend = -1
		return s.send(home, int(pend), Msg{Type: MSRep, Line: m.Line, Val: h.MemVal, RTxn: h.PendTxn}, cfg.QueueDepth)
	case h.Dir == DBX && int(h.Owner) == src:
		h.MemVal = m.Val
		h.Dir = DE
		pend := h.Pend
		h.Owner = pend
		h.OwnTxn = h.PendTxn
		h.Shr = 0
		h.Pend = -1
		return s.send(home, int(pend), Msg{Type: MXRep, Line: m.Line, Val: h.MemVal, RTxn: h.PendTxn}, cfg.QueueDepth)
	case h.Dir == DBX && int(h.Pend) == src:
		// The new owner's writeback beat the old owner's TransferAck:
		// ownership came and went; the stale ack is dropped by txn.
		h.MemVal = m.Val
		h.Dir = DU
		h.Owner = -1
		h.Pend = -1
		return true
	}
	panic(fmt.Sprintf("mcheck: writeback from %d in dir %s owner %d", src, h.Dir, h.Owner))
}

// canIssue reports whether node i may issue another request: under its
// per-node budget and, when Config.MaxTotalIssues is set, under the global
// budget shared by all nodes.
func canIssue(cfg Config, s *State, i int) bool {
	if s.Iss[i] >= cfg.MaxIssues {
		return false
	}
	if cfg.MaxTotalIssues > 0 {
		var tot int8
		for _, v := range s.Iss {
			tot += v
		}
		if tot >= cfg.MaxTotalIssues {
			return false
		}
	}
	return true
}
