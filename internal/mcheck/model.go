// Package mcheck is the reproduction of the paper's §2.5 verification: an
// explicit-state model checker in the style of Murphi, run over an abstract
// model of the protocol — the base directory write-invalidate protocol
// extended with directory delegation and speculative updates. The model is
// an independent, second encoding of the protocol rules (the simulator in
// internal/core is the first), so exhaustive reachability over it checks
// the *design*, and disagreements between the two encodings surface as
// invariant violations here or runtime-check panics there. The one rule
// the two encodings share rather than restate is the home's shared-write
// decision, protocol.Mechanism.SharedWrite.
//
// The checked properties mirror the paper's: the DASH-style "single writer
// exists" and "consistency within the directory" invariants, a data-value
// invariant (every readable copy holds the latest written value — the
// single-location guarantee sequential consistency needs from coherence),
// absence of deadlock (no reachable state with outstanding work and no
// enabled transition), and scripted litmus tests for ordering.
//
// The model covers one or more cache lines (Config.Lines). All lines are
// homed at node 0's hub, sharing the pairwise FIFO channels, so cross-line
// interactions — a delegation on one line racing traffic for another
// through the same ordered fabric — are part of the explored space. The
// exploration core is the parallel engine in parallel.go: canonical state
// encoding with symmetry reduction (canon.go), a sharded open-addressed
// visited table (visited.go), and work-stealing BFS with deterministic
// counterexample selection.
package mcheck

import (
	"errors"
	"fmt"
	"strings"

	"pccsim/internal/protocol"
)

// CacheState is a node's cached-copy state.
type CacheState uint8

const (
	CI CacheState = iota // invalid
	CS                   // shared
	CE                   // exclusive (dirty)
)

var cacheNames = [...]string{"I", "S", "E"}

func (c CacheState) String() string { return cacheNames[c] }

// MshrState is a node's outstanding-request state.
type MshrState uint8

const (
	MNone MshrState = iota
	MWantS
	MWantX   // GetExcl issued
	MWantUpg // Upgrade issued
	MWaitAck // data granted, invalidation acks still arriving
)

var mshrNames = [...]string{"-", "wS", "wX", "wU", "wA"}

func (m MshrState) String() string { return mshrNames[m] }

// DirState is the home directory state for the line.
type DirState uint8

const (
	DU  DirState = iota // unowned
	DS                  // shared
	DE                  // exclusive
	DBS                 // busy-shared (intervention outstanding)
	DBX                 // busy-exclusive (transfer outstanding)
	DD                  // delegated
)

var dirNames = [...]string{"U", "S", "E", "BS", "BX", "D"}

func (d DirState) String() string { return dirNames[d] }

// MsgType enumerates model messages (a compressed version of msg.Type).
type MsgType uint8

const (
	MGetS MsgType = iota
	MGetX
	MUpg
	MInval
	MInvAck
	MSRep    // shared reply (data)
	MXRep    // exclusive reply (data + ack count)
	MUpgAck  // upgrade ack (ack count)
	MInt     // intervention
	MSResp   // shared response from owner
	MSWB     // shared writeback to home
	MXferReq // ownership transfer request
	MXResp   // exclusive response from owner
	MXferAck // ownership transfer done
	MWB      // writeback
	MWBAck
	MNack
	MNackNH // "not home": drop the hint
	MDele   // delegate (directory handoff, doubles as exclusive reply)
	MUndele // undelegate (directory handback)
	MUndAck
	MHint // new-home hint
	MUpd  // speculative update
	numMsgTypes
)

var msgNames = [...]string{
	"GetS", "GetX", "Upg", "Inval", "InvAck", "SRep", "XRep", "UpgAck",
	"Int", "SResp", "SWB", "XferReq", "XResp", "XferAck", "WB", "WBAck",
	"Nack", "NackNH", "Dele", "Undele", "UndAck", "Hint", "Upd",
}

func (t MsgType) String() string { return msgNames[t] }

// Msg is one in-flight message. Val is the abstract data version. Line
// selects the cache line the message concerns; channels are shared by all
// lines, so messages for different lines order through one FIFO exactly as
// they do on the simulator's pairwise-ordered fabric.
type Msg struct {
	Type MsgType
	Line int8
	Req  int8 // requester the message serves
	Val  int8
	Acks int8
	Shr  uint8 // sharer bitmask (Dele/Undele)
	Fwd  MsgType
	// RTxn is the requester's transaction number, echoed by replies,
	// NACKs and invalidation acks (the simulator's msg.Message.Txn).
	RTxn int8
	// GEp is the ownership epoch an intervention or transfer refers to
	// (the simulator's msg.Message.GrantTxn): the RTxn of the request
	// that granted the current owner its copy.
	GEp int8
}

// Node is one processor/hub's per-line state in the model. The full model
// state holds Nodes×Lines of these (State.N, line-major).
type Node struct {
	Cache CacheState
	Val   int8
	Mshr  MshrState
	Acks  int8 // invalidation acks still owed to this requester
	// MVal is the data version parked in the MSHR (upgrade stash or an
	// early reply awaiting acks); MHave marks it valid.
	MVal  int8
	MHave bool
	// Inv marks a read whose reply must be used once and not cached.
	Inv bool
	// Hint: the node believes the line is delegated to Prod.
	Hint     bool
	HintProd int8
	// RAC holds an update-landed or surrogate copy (valid when >= 0).
	RACVal int8
	RACOk  bool

	// Txn is the transaction number of this line's outstanding request
	// (issue numbers are allocated per node across lines, so they stay
	// unique); GEp is the epoch under which an exclusive copy was
	// granted.
	Txn int8
	GEp int8

	// Delegated directory (valid when HasProd). Mirrors the producer
	// table entry: delegated state, sharer mask, update bookkeeping.
	HasProd bool
	PDir    DirState // DS or DE
	PShr    uint8
	PUpdSet uint8
	PArmed  bool // delayed intervention armed
	PInFlt  int8 // update pushes not yet delivered
}

// Home is the home node's directory view of one line.
type Home struct {
	Dir     DirState
	Shr     uint8
	Owner   int8
	Pend    int8
	PendX   bool
	PendFwd MsgType
	MemVal  int8
	// OwnTxn is the current ownership epoch (the grant's RTxn); PendTxn
	// is the pending requester's transaction while busy.
	OwnTxn  int8
	PendTxn int8
	// Detector state: last writer and the write-repeat counter (the
	// model uses a threshold of 2 to keep state spaces small).
	DetW   int8
	DetRep int8
	DetRd  bool // a foreign read happened since the last write
}

// Config parameterizes the model.
type Config struct {
	Nodes      int  `json:"nodes"`                // processors (the home directory lives beside node 0)
	Lines      int  `json:"lines,omitempty"`      // modeled cache lines, all homed at node 0 (0 = 1)
	MaxWrites  int  `json:"max_writes"`           // bound on data versions, totaled across lines
	QueueDepth int  `json:"queue_depth"`          // per src->dst channel bound (shared by all lines)
	Delegation bool `json:"delegation,omitempty"` // enable the delegation + update extensions
	DetThresh  int8 `json:"det_thresh,omitempty"` // write-repeat saturation threshold (paper: 3)
	// MaxIssues bounds each node's total request issues across all lines
	// (including NACK-forced retries), which bounds transaction
	// numbers — the usual bounded-model-checking compromise for retry
	// protocols.
	MaxIssues int8 `json:"max_issues"`
	// MaxTotalIssues, when positive, additionally bounds the sum of
	// issues across all nodes. The per-node bound alone multiplies the
	// interleaving space per extra line; the global bound keeps
	// multi-line configurations tractable while still letting any node
	// (and in particular a repeat producer) spend the shared budget.
	// Older corpus files omit it and replay with the bound off.
	MaxTotalIssues int8 `json:"max_total_issues,omitempty"`

	// Scripts, when non-nil, switches the model to litmus mode: instead
	// of free processor actions, node i executes Scripts[i] in program
	// order on line 0 (reads record the observed version) and
	// spontaneous cache evictions are disabled. Used by Litmus; never
	// part of a corpus case.
	Scripts [][]LitOp `json:"-"`
}

// LitOp is one scripted litmus operation.
type LitOp struct {
	Write bool
}

// ErrBadConfig is the class sentinel of a Config the model cannot
// represent: every Validate error satisfies errors.Is(err, ErrBadConfig).
var ErrBadConfig = errors.New("mcheck: invalid configuration")

// Validate reports whether the model can represent c. Node sets are uint8
// masks and symmetry permutes at most 8 nodes; the line-permutation group
// grows as Lines!; a channel's length is one byte; versions and the issue
// bounds are int8.
func (c Config) Validate() error {
	var why string
	switch {
	case c.Nodes < 1 || c.Nodes > 8:
		why = fmt.Sprintf("Nodes %d outside 1..8", c.Nodes)
	case c.Lines < 0 || c.Lines > 8:
		why = fmt.Sprintf("Lines %d outside 0..8", c.Lines)
	case c.QueueDepth < 1 || c.QueueDepth > 255:
		why = fmt.Sprintf("QueueDepth %d outside 1..255", c.QueueDepth)
	case c.MaxWrites < 0 || c.MaxWrites > 127:
		why = fmt.Sprintf("MaxWrites %d outside 0..127", c.MaxWrites)
	case c.DetThresh < 0 || c.MaxIssues < 0 || c.MaxTotalIssues < 0:
		why = fmt.Sprintf("negative bound (DetThresh %d, MaxIssues %d, MaxTotalIssues %d)",
			c.DetThresh, c.MaxIssues, c.MaxTotalIssues)
	case c.Scripts != nil && len(c.Scripts) != c.Nodes:
		why = fmt.Sprintf("%d scripts for %d nodes", len(c.Scripts), c.Nodes)
	default:
		return nil
	}
	return fmt.Errorf("%w: %s", ErrBadConfig, why)
}

// lines resolves the line count (a zero value means one line, matching the
// single-location model of earlier revisions).
func (c Config) lines() int {
	if c.Lines <= 0 {
		return 1
	}
	return c.Lines
}

// mechanism is the protocol mechanism the model runs: delegation when
// Delegation is set, the plain write-invalidate base otherwise.
func (c Config) mechanism() protocol.Mechanism {
	if c.Delegation {
		return protocol.Delegation
	}
	return protocol.None
}

// DefaultConfig is the paper-style small configuration: 3 nodes, one line,
// bounded writes and retries, delegation and updates on.
func DefaultConfig() Config {
	return Config{Nodes: 3, MaxWrites: 2, QueueDepth: 2, Delegation: true,
		DetThresh: 2, MaxIssues: 3}
}

// DeepConfig is the ROADMAP's deep verification target: 4 nodes × 2 lines
// with delegation and speculative updates enabled simultaneously, both
// lines homed at node 0, a detector threshold low enough that delegation
// is reachable within the write bound, and a global issue budget that
// keeps the space explorable to a fixpoint (404,959 canonical states)
// inside the CI budget, race detector included. One step looser
// (MaxTotalIssues: 5) reaches a clean fixpoint of 9,073,482 canonical
// states and 29,878,735 transitions in 21–30 s at 2 workers on a 2-vCPU
// host, at 185 MB peak RSS; TestDeepConfigCounts pins both outside -short
// and -race. Without the global budget the 3-node × 2-line space alone
// passes 26M.
func DeepConfig() Config {
	return Config{Nodes: 4, Lines: 2, MaxWrites: 2, QueueDepth: 2,
		Delegation: true, DetThresh: 1, MaxIssues: 2, MaxTotalIssues: 4}
}

// BenchConfig is the 3-node × 2-line configuration whose exact counts
// TestBenchConfigCounts pins: 1,140,851 raw states (285,914 canonical) —
// large enough that exploration runs for seconds, small enough that the
// serial map-based checker finishes and can be compared state for state.
func BenchConfig() Config {
	return Config{Nodes: 3, Lines: 2, MaxWrites: 2, QueueDepth: 2,
		Delegation: true, DetThresh: 1, MaxIssues: 2, MaxTotalIssues: 4}
}

// State is one global model state. N holds per-line node state, line-major
// (line l, node i at N[l*Nodes+i]); H the per-line home directory; Iss the
// per-node issue budget consumed. Channels are per (src,dst) FIFO queues
// shared by every line, matching the pairwise-ordered fabric of
// internal/network (index src*Nodes+dst; the home shares node 0's hub).
type State struct {
	N      []Node // [line*Nodes + node]
	H      []Home // per line
	Iss    []int8 // per node, lines share the issue budget
	Ch     [][]Msg
	Latest []int8 // newest written version per line (checker bookkeeping)
	Writes int8   // total writes across lines

	// Litmus-mode bookkeeping: per-node program counters and the
	// versions each node's reads observed, in program order.
	PC  []int8
	Obs [][]int8
}

// node returns the per-line state of node i for line l.
func (s *State) node(l, i int) *Node { return &s.N[l*s.nodes()+i] }

// nodes returns the node count (derived, so State needs no Config).
func (s *State) nodes() int { return len(s.Iss) }

// NewState returns the initial state: lines unowned, memory holds
// version 0 of every line.
func NewState(cfg Config) *State {
	n, lines := cfg.Nodes, cfg.lines()
	if n > 8 {
		panic("mcheck: node masks are 8-bit; Nodes must be <= 8")
	}
	s := &State{
		N:      make([]Node, lines*n),
		H:      make([]Home, lines),
		Iss:    make([]int8, n),
		Ch:     make([][]Msg, n*n),
		Latest: make([]int8, lines),
	}
	for i := range s.N {
		s.N[i].HintProd = -1
	}
	for l := range s.H {
		s.H[l] = Home{Owner: -1, Pend: -1, DetW: -1}
	}
	if cfg.Scripts != nil {
		s.PC = make([]int8, n)
		s.Obs = make([][]int8, n)
	}
	return s
}

// Clone deep-copies the state into a freshly allocated State.
func (s *State) Clone() *State {
	ns := &State{}
	s.copyInto(ns)
	return ns
}

// copyInto deep-copies s into d, reusing d's slice capacity: d shares no
// backing array with s afterwards, and a recycled d allocates only where
// s holds more than d ever did. Into a zero State it allocates only what
// s holds, leaving empty channels and observation lists nil.
func (s *State) copyInto(d *State) {
	d.N = append(d.N[:0], s.N...)
	d.H = append(d.H[:0], s.H...)
	d.Iss = append(d.Iss[:0], s.Iss...)
	d.Latest = append(d.Latest[:0], s.Latest...)
	d.Writes = s.Writes
	d.Ch = resize(d.Ch, len(s.Ch))
	for i, q := range s.Ch {
		d.Ch[i] = append(d.Ch[i][:0], q...)
	}
	if s.PC == nil {
		d.PC, d.Obs = nil, nil
		return
	}
	d.PC = append(d.PC[:0], s.PC...)
	d.Obs = resize(d.Obs, len(s.Obs))
	for i, o := range s.Obs {
		d.Obs[i] = append(d.Obs[i][:0], o...)
	}
}

// resize returns s resliced to length n, reallocating only when its
// capacity is short. Reused elements keep their old contents.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Key returns the binary state encoding as a string, for map-keyed visited
// sets (the reference serial checker and tests; the parallel engine works
// on the raw canonical bytes instead).
func (s *State) Key() string { return string(s.Encode(nil)) }

// CanonicalKey is Key modulo the symmetry of the non-home nodes and of the
// identically-configured lines: in the generic (scriptless) model every
// node except the home behaves identically and all lines are homed at
// node 0, so states differing only by a permutation of nodes 1..N-1 and/or
// of lines are equivalent. The canonical key is the lexicographically
// smallest encoding over the full permutation group (node counts are tiny,
// so enumerating it is cheap). Litmus mode has distinguished scripts and
// must use Key. The group is the shared memoised one; a call allocates only
// its scratch and the key.
func (s *State) CanonicalKey() string {
	if s.PC != nil {
		return s.Key()
	}
	size := encodedLen(s)
	scratch := make([]byte, 2*size)
	c := canonicalizer{g: symmetryGroup(s.nodes(), len(s.H), false), best: scratch[size:]}
	return string(c.appendCanonical(scratch[:0:size], s))
}

// String renders the state for counterexample traces.
func (s *State) String() string {
	var b strings.Builder
	n := s.nodes()
	for l := range s.H {
		if len(s.H) > 1 {
			fmt.Fprintf(&b, "L%d: ", l)
		}
		for i := 0; i < n; i++ {
			nd := s.node(l, i)
			fmt.Fprintf(&b, "n%d[%s v%d %s", i, nd.Cache, nd.Val, nd.Mshr)
			if nd.RACOk {
				fmt.Fprintf(&b, " rac:v%d", nd.RACVal)
			}
			if nd.HasProd {
				fmt.Fprintf(&b, " prod:%s shr=%b upd=%b inflt=%d", nd.PDir, nd.PShr, nd.PUpdSet, nd.PInFlt)
			}
			b.WriteString("] ")
		}
		h := &s.H[l]
		fmt.Fprintf(&b, "home[%s shr=%b own=%d mem=v%d] latest=v%d ", h.Dir, h.Shr, h.Owner, h.MemVal, s.Latest[l])
	}
	for i, q := range s.Ch {
		for _, m := range q {
			if len(s.H) > 1 {
				fmt.Fprintf(&b, " {L%d %d->%d %s v%d}", m.Line, i/n, i%n, m.Type, m.Val)
			} else {
				fmt.Fprintf(&b, " {%d->%d %s v%d}", i/n, i%n, m.Type, m.Val)
			}
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// send enqueues a message on the src->dst channel; it reports false when
// the channel bound would be exceeded (the rule is then disabled).
func (s *State) send(src, dst int, m Msg, depth int) bool {
	i := src*s.nodes() + dst
	if len(s.Ch[i]) >= depth {
		return false
	}
	s.Ch[i] = append(s.Ch[i], m)
	return true
}

func bit(n int8) uint8 { return 1 << uint8(n) }

func popcount(x uint8) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}
