package mcheck

import (
	"bytes"
	"encoding/binary"
	"sync"
)

// Canonical state encoding: a compact, hash-friendly byte serialization of
// the full model state — per-line node records, per-line directory, issue
// budgets, channel contents, litmus bookkeeping — that round-trips through
// Decode, so the exploration frontier can hold encoded bytes instead of
// live *State values (about 4× smaller and allocation-flat).
//
// Symmetry reduction happens at the encoding layer: every node except the
// home (node 0) behaves identically in the generic model, and all lines
// are identically configured and homed at node 0, so the symmetry group is
// Sym(nodes 1..N-1) × Sym(lines). A state's canonical form is the
// lexicographically smallest encoding over that group.
//
// The group is built once per (nodes, lines, identity) shape, memoised and
// shared read-only by every worker, TraceTo and CanonicalKey. Each node
// permutation carries its inverse (new → old, so the encoder walks the
// state in new-index order by direct lookup) and a 256-entry table that
// renames a node bitmask in one load; each line permutation carries its
// inverse. No permuted State is ever materialized.
//
// The minimum is found with early exit: the identity encoding is the first
// candidate, and every other element encodes one record at a time,
// comparing each record against the current best. It is abandoned at the
// first greater byte; once it is known to be smaller it stops comparing
// and finishes the encoding, which becomes the new best. Encodings of one
// state have equal length, so this is exactly the lexicographic minimum.
// The group is tiny at model-checking scale (6 node perms × 2 line perms
// for the 4-node × 2-line deep configuration), and most losing elements
// are rejected within the first two node records.

// boolByte packs booleans into flag bits.
func boolByte(v bool, shift uint) byte {
	if v {
		return 1 << shift
	}
	return 0
}

// nodePerm is one home-fixing node permutation, precomputed for the
// encoder.
type nodePerm struct {
	to   [8]int8    // old id → new id
	from [8]int8    // new id → old id
	mask [256]uint8 // node bitmask → the mask of the renamed nodes
}

// newNodePerm tabulates the permutation p (old index → new index). Mask
// bits at or above len(p) are dropped: they name no node.
func newNodePerm(p []int) *nodePerm {
	np := &nodePerm{}
	for old, nw := range p {
		np.to[old] = int8(nw)
		np.from[nw] = int8(old)
	}
	for m := range np.mask {
		for old, nw := range p {
			if m&(1<<old) != 0 {
				np.mask[m] |= 1 << nw
			}
		}
	}
	return np
}

// id renames a node id; negative ids ("none") pass through.
func (p *nodePerm) id(v int8) int8 {
	if v < 0 {
		return v
	}
	return p.to[v]
}

// linePerm is one line permutation; a nil *linePerm is the identity.
type linePerm struct {
	to   []int8 // old line → new line
	from []int8 // new line → old line
}

// symGroup is the symmetry group of one model shape: the node permutations
// that fix the home and every line permutation, identity first in both
// (the identity line permutation is nil). Immutable once built.
type symGroup struct {
	nodes []*nodePerm
	lines []*linePerm
}

// identityPerms holds the identity node permutation for each node count.
var identityPerms = func() (out [9]*nodePerm) {
	for n := range out {
		out[n] = newNodePerm(permutations(n)[0])
	}
	return out
}()

type groupKey struct {
	nodes, lines int
	identity     bool
}

var (
	groupsMu sync.RWMutex
	groups   = map[groupKey]*symGroup{}
)

// symmetryGroup returns the memoised group for n nodes and `lines` lines.
// Identity mode (litmus scripts distinguish the nodes, or reduction is
// off) collapses the group to the identity: canonical == plain encoding.
func symmetryGroup(n, lines int, identity bool) *symGroup {
	k := groupKey{n, lines, identity}
	groupsMu.RLock()
	g := groups[k]
	groupsMu.RUnlock()
	if g != nil {
		return g
	}
	g = &symGroup{nodes: []*nodePerm{identityPerms[n]}, lines: []*linePerm{nil}}
	if !identity {
		for _, r := range permutations(n - 1)[1:] {
			p := make([]int, n)
			for j, v := range r {
				p[j+1] = v + 1
			}
			g.nodes = append(g.nodes, newNodePerm(p))
		}
		for _, r := range permutations(lines)[1:] {
			lp := &linePerm{to: make([]int8, lines), from: make([]int8, lines)}
			for old, nw := range r {
				lp.to[old] = int8(nw)
				lp.from[nw] = int8(old)
			}
			g.lines = append(g.lines, lp)
		}
	}
	groupsMu.Lock()
	defer groupsMu.Unlock()
	if prev := groups[k]; prev != nil {
		return prev
	}
	groups[k] = g
	return g
}

// permutations enumerates the permutations of 0..k-1 as fresh slices,
// identity first.
func permutations(k int) [][]int {
	p := make([]int, k)
	for i := range p {
		p[i] = i
	}
	var out [][]int
	var rec func(i int)
	rec = func(i int) {
		if i >= k-1 {
			out = append(out, append([]int(nil), p...))
			return
		}
		for j := i; j < k; j++ {
			p[i], p[j] = p[j], p[i]
			rec(i + 1)
			p[i], p[j] = p[j], p[i]
		}
	}
	rec(0)
	return out
}

// Encode appends the state's identity-permutation encoding to buf and
// returns the extended slice. The encoding is complete: Decode inverts it.
func (s *State) Encode(buf []byte) []byte {
	buf, _ = encode(buf, s, identityPerms[s.nodes()], nil, nil)
	return buf
}

// encode appends the encoding of s under node permutation p and line
// permutation lp (nil: identity) to buf, walking the state in new-index
// order so that two states in one orbit encode identically under the right
// elements.
//
// With best nil it always encodes in full and reports true. Otherwise best
// is another encoding of s (hence of equal length), and encode compares
// record by record against it: it stops with less == false as soon as the
// output cannot be smaller, leaving buf partial, and once it is known to be
// smaller it stops comparing and finishes; less == true then means buf is
// a complete encoding below best.
func encode(buf []byte, s *State, p *nodePerm, lp *linePerm, best []byte) (_ []byte, less bool) {
	n := s.nodes()
	stop := false
	for nl := range s.H {
		ol := nl
		if lp != nil {
			ol = int(lp.from[nl])
		}
		row := s.N[ol*n : ol*n+n]
		for nj := 0; nj < n; nj++ {
			start := len(buf)
			nd := &row[p.from[nj]]
			buf = append(buf,
				byte(nd.Cache), byte(nd.Val), byte(nd.Mshr), byte(nd.Acks), byte(nd.MVal),
				boolByte(nd.MHave, 0)|boolByte(nd.Inv, 1)|boolByte(nd.Hint, 2)|
					boolByte(nd.RACOk, 3)|boolByte(nd.HasProd, 4)|boolByte(nd.PArmed, 5),
				byte(p.id(nd.HintProd)), byte(nd.RACVal), byte(nd.Txn), byte(nd.GEp),
				byte(nd.PDir), p.mask[nd.PShr], p.mask[nd.PUpdSet], byte(nd.PInFlt))
			if best != nil {
				if best, stop = lexStep(buf, best, start); stop {
					return buf, false
				}
			}
		}
		start := len(buf)
		h := &s.H[ol]
		buf = append(buf, byte(h.Dir), p.mask[h.Shr], byte(p.id(h.Owner)), byte(p.id(h.Pend)),
			boolByte(h.PendX, 0)|boolByte(h.DetRd, 1), byte(h.PendFwd), byte(h.MemVal),
			byte(h.OwnTxn), byte(h.PendTxn), byte(p.id(h.DetW)), byte(h.DetRep),
			byte(s.Latest[ol]))
		if best != nil {
			if best, stop = lexStep(buf, best, start); stop {
				return buf, false
			}
		}
	}
	start := len(buf)
	for nj := 0; nj < n; nj++ {
		buf = append(buf, byte(s.Iss[p.from[nj]]))
	}
	buf = append(buf, byte(s.Writes))
	if best != nil {
		if best, stop = lexStep(buf, best, start); stop {
			return buf, false
		}
	}
	for nsrc := 0; nsrc < n; nsrc++ {
		osrc := int(p.from[nsrc]) * n
		for ndst := 0; ndst < n; ndst++ {
			start := len(buf)
			q := s.Ch[osrc+int(p.from[ndst])]
			buf = append(buf, byte(len(q)))
			for i := range q {
				m := &q[i]
				val := m.Val
				if m.Type == MHint {
					val = p.id(val) // Hint reuses Val as a node id
				}
				line := m.Line
				if lp != nil {
					line = lp.to[line]
				}
				buf = append(buf, byte(m.Type), byte(line), byte(p.id(m.Req)), byte(val),
					byte(m.Acks), p.mask[m.Shr], byte(m.Fwd), byte(m.RTxn), byte(m.GEp))
			}
			if best != nil {
				if best, stop = lexStep(buf, best, start); stop {
					return buf, false
				}
			}
		}
	}
	if s.PC != nil {
		start := len(buf)
		for i := range s.PC {
			buf = append(buf, byte(s.PC[i]), byte(len(s.Obs[i])))
			for _, o := range s.Obs[i] {
				buf = append(buf, byte(o))
			}
		}
		if best != nil {
			if best, stop = lexStep(buf, best, start); stop {
				return buf, false
			}
		}
	}
	return buf, best == nil
}

// lexStep compares the record buf[start:] with best at the same offsets.
// It returns best while the two are still equal, nil once buf is known to
// be smaller (no further comparison is needed), and stop once buf is known
// to be greater.
func lexStep(buf, best []byte, start int) (_ []byte, stop bool) {
	switch bytes.Compare(buf[start:], best[start:len(buf)]) {
	case -1:
		return nil, false
	case 1:
		return best, true
	}
	return best, false
}

// DecodeState reconstructs a freshly allocated State from its identity
// encoding. cfg must be the configuration the state was encoded under (it
// sizes every array and selects litmus mode).
func DecodeState(cfg Config, data []byte) *State {
	s := &State{}
	decodeInto(cfg, data, s)
	return s
}

// decodeInto overwrites s with the state data encodes, reusing s's slice
// capacity: the exploration workers decode every popped state into one
// State they own. Into a zero State it allocates exactly what the state
// needs, leaving empty channels and observation lists nil.
func decodeInto(cfg Config, data []byte, s *State) {
	n, lines := cfg.Nodes, cfg.lines()
	s.N = resize(s.N, lines*n)
	s.H = resize(s.H, lines)
	s.Iss = resize(s.Iss, n)
	s.Ch = resize(s.Ch, n*n)
	s.Latest = resize(s.Latest, lines)
	k := 0
	next := func() byte { b := data[k]; k++; return b }
	for l := 0; l < lines; l++ {
		for i := 0; i < n; i++ {
			nd := s.node(l, i)
			nd.Cache = CacheState(next())
			nd.Val = int8(next())
			nd.Mshr = MshrState(next())
			nd.Acks = int8(next())
			nd.MVal = int8(next())
			fl := next()
			nd.MHave = fl&1 != 0
			nd.Inv = fl&2 != 0
			nd.Hint = fl&4 != 0
			nd.RACOk = fl&8 != 0
			nd.HasProd = fl&16 != 0
			nd.PArmed = fl&32 != 0
			nd.HintProd = int8(next())
			nd.RACVal = int8(next())
			nd.Txn = int8(next())
			nd.GEp = int8(next())
			nd.PDir = DirState(next())
			nd.PShr = next()
			nd.PUpdSet = next()
			nd.PInFlt = int8(next())
		}
		h := &s.H[l]
		h.Dir = DirState(next())
		h.Shr = next()
		h.Owner = int8(next())
		h.Pend = int8(next())
		fl := next()
		h.PendX = fl&1 != 0
		h.DetRd = fl&2 != 0
		h.PendFwd = MsgType(next())
		h.MemVal = int8(next())
		h.OwnTxn = int8(next())
		h.PendTxn = int8(next())
		h.DetW = int8(next())
		h.DetRep = int8(next())
		s.Latest[l] = int8(next())
	}
	for i := 0; i < n; i++ {
		s.Iss[i] = int8(next())
	}
	s.Writes = int8(next())
	for ci := 0; ci < n*n; ci++ {
		q := resize(s.Ch[ci], int(next()))
		for mi := range q {
			m := &q[mi]
			m.Type = MsgType(next())
			m.Line = int8(next())
			m.Req = int8(next())
			m.Val = int8(next())
			m.Acks = int8(next())
			m.Shr = next()
			m.Fwd = MsgType(next())
			m.RTxn = int8(next())
			m.GEp = int8(next())
		}
		s.Ch[ci] = q
	}
	if cfg.Scripts == nil {
		s.PC, s.Obs = nil, nil
	} else {
		s.PC = resize(s.PC, n)
		s.Obs = resize(s.Obs, n)
		for i := 0; i < n; i++ {
			s.PC[i] = int8(next())
			o := resize(s.Obs[i], int(next()))
			for j := range o {
				o[j] = int8(next())
			}
			s.Obs[i] = o
		}
	}
	if k != len(data) {
		panic("mcheck: trailing bytes in state encoding")
	}
}

// canonicalizer computes canonical encodings against a shared symmetry
// group. One instance per worker; the scratch buffers are reused across
// states, so after warm-up the hot path does not allocate.
type canonicalizer struct {
	g    *symGroup
	buf  []byte
	best []byte
}

// newCanonicalizer returns a canonicalizer over the memoised group for n
// nodes and `lines` lines (the identity alone in identity mode).
func newCanonicalizer(n, lines int, identity bool) *canonicalizer {
	return &canonicalizer{g: symmetryGroup(n, lines, identity)}
}

// canonical returns the lexicographically smallest encoding of s over the
// symmetry group. The returned slice is owned by the canonicalizer and
// valid until the next call.
func (c *canonicalizer) canonical(s *State) []byte {
	c.best, _ = encode(c.best[:0], s, c.g.nodes[0], nil, nil)
	for pi, p := range c.g.nodes {
		for li, lp := range c.g.lines {
			if pi == 0 && li == 0 {
				continue
			}
			var less bool
			if c.buf, less = encode(c.buf[:0], s, p, lp, c.best); less {
				c.buf, c.best = c.best, c.buf
			}
		}
	}
	return c.best
}

// encodedLen is the length of any encoding of s.
func encodedLen(s *State) int {
	n := s.nodes()
	size := len(s.H)*(n*14+12) + n + 1 + n*n
	for _, q := range s.Ch {
		size += 9 * len(q)
	}
	for _, o := range s.Obs {
		size += 2 + len(o)
	}
	return size
}

// fpOffset stands in for a zero hash, so the visited table can use 0 as
// its empty-slot sentinel.
const fpOffset = 0x9E3779B97F4A7C15

// fingerprint hashes an encoding to the 64-bit key the visited table
// stores. It folds the input in a little-endian 8-byte word at a time
// (the last, partial word zero-padded) into a state seeded with the
// length, running SplitMix64's full finalizer after every word. The
// finalizer is a bijection that spreads every input bit over the whole
// word, so inputs of one length that differ in a single word always hash
// apart, a difference in one word cannot be cancelled by the next except
// by chance, and the length seed separates inputs that differ only by
// trailing zero bytes. Two states colliding at 64 bits would be merged
// silently — the standard hash-compaction trade — but the collision
// probability at model-checking scale (~10^7 states) is below 10^-5, and
// because the hash is deterministic, serial and parallel runs agree
// exactly even in that event.
func fingerprint(b []byte) uint64 {
	h := uint64(len(b)) * fpOffset
	for ; len(b) >= 8; b = b[8:] {
		h = avalanche(h ^ binary.LittleEndian.Uint64(b))
	}
	if len(b) > 0 {
		var w uint64
		for i, c := range b {
			w |= uint64(c) << (8 * i)
		}
		h = avalanche(h ^ w)
	}
	if h == 0 {
		return fpOffset
	}
	return h
}

// avalanche is SplitMix64's finalizer.
func avalanche(h uint64) uint64 {
	h = (h ^ h>>30) * 0xBF58476D1CE4E5B9
	h = (h ^ h>>27) * 0x94D049BB133111EB
	return h ^ h>>31
}
