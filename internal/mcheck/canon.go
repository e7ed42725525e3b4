package mcheck

import (
	"encoding/binary"
	"slices"
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
// permutation carries its inverse (new → old) and two 256-entry tables,
// one renaming an encoded node id and one a node bitmask, each in one
// load; each line permutation carries its inverse and its forward map.
// No permuted State is ever materialized.
//
// A state is encoded in full once, under the identity, straight into the
// caller's buffer. Every other group element is a reordering of that
// encoding's records in which only the bytes naming nodes or lines
// change: a node record's hint producer and its two masks, a home
// record's sharers, owner, pending requester and last writer, a message's
// line, requester, sharers and a Hint's producer. So an element is
// compared against the current best by reading its records out of the
// identity encoding 8 big-endian bytes at a time, renaming those bytes
// through its tables, and stopping at the first word that differs. Only
// an element found to be smaller is written out in full, into scratch,
// and the last one written replaces the identity encoding. Two exact
// prunes skip elements without comparing them:
// the first six bytes of the first record (the home node's, on the line
// moved to the front) do not depend on the node permutation, so a line
// permutation whose six bytes exceed the best's loses with every node
// permutation; and when that home-node record is the same under every
// node permutation, the first non-home record decides next, so a node
// permutation that moves a node with a larger six-byte prefix there is
// beaten by one that moves the smallest. Encodings of one state have
// equal length, so this is exactly the lexicographic minimum.

// Record sizes of the encoding: a node's per-line record, a line's home
// record (with the line's latest version) and a message.
const (
	nodeRecLen = 14
	homeRecLen = 12
	msgLen     = 9
)

// boolByte packs booleans into flag bits (written to compile without a
// branch).
func boolByte(v bool, shift uint) byte {
	var b byte
	if v {
		b = 1
	}
	return b << shift
}

// nodePerm is one home-fixing node permutation, tabulated for reading
// identity encodings under it.
type nodePerm struct {
	from [8]uint8   // new id → old id
	id   [256]uint8 // encoded node id → the renamed id; "none" (-1) passes through
	mask [256]uint8 // node bitmask → the mask of the renamed nodes
}

// newNodePerm tabulates the permutation p (old index → new index). Mask
// bits at or above len(p) are dropped: they name no node.
func newNodePerm(p []int) *nodePerm {
	np := &nodePerm{}
	for b := range np.id {
		np.id[b] = uint8(b)
	}
	for old, nw := range p {
		np.from[nw] = uint8(old)
		np.id[old] = uint8(nw)
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

// linePerm is one line permutation.
type linePerm struct {
	to   []uint8 // old line → new line
	from []uint8 // new line → old line
}

// newLinePerm tabulates the permutation r (old line → new line).
func newLinePerm(r []int) *linePerm {
	lp := &linePerm{to: make([]uint8, len(r)), from: make([]uint8, len(r))}
	for old, nw := range r {
		lp.to[old] = uint8(nw)
		lp.from[nw] = uint8(old)
	}
	return lp
}

// symGroup is the symmetry group of one model shape: the node permutations
// that fix the home and every line permutation, identity first in both.
// Immutable once built.
type symGroup struct {
	nodes []*nodePerm
	lines []*linePerm
}

// identityPerms holds the identity node permutation for each node count.
var identityPerms = func() (out [9]*nodePerm) {
	for n := range out {
		out[n] = newNodePerm(identityPerm(n))
	}
	return out
}()

// identityPerm returns a fresh identity permutation of 0..n-1.
func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

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
	g = &symGroup{nodes: []*nodePerm{identityPerms[n]}, lines: []*linePerm{newLinePerm(identityPerm(lines))}}
	if !identity {
		for _, r := range permutations(n - 1)[1:] {
			p := make([]int, n)
			for j, v := range r {
				p[j+1] = v + 1
			}
			g.nodes = append(g.nodes, newNodePerm(p))
		}
		for _, r := range permutations(lines)[1:] {
			g.lines = append(g.lines, newLinePerm(r))
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
	p := identityPerm(k)
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
	buf, b := grow(buf, encodedLen(s))
	encode(b, s)
	return buf
}

// grow extends buf by n bytes and returns it with the new tail.
func grow(buf []byte, n int) (_, tail []byte) {
	k := len(buf)
	buf = slices.Grow(buf, n)[:k+n]
	return buf, buf[k:]
}

// encodedLen is the length of any encoding of s.
func encodedLen(s *State) int {
	n := s.nodes()
	size := len(s.H)*(n*nodeRecLen+homeRecLen) + n + 1 + n*n
	for _, q := range s.Ch {
		size += msgLen * len(q)
	}
	for _, o := range s.Obs {
		size += 2 + len(o)
	}
	return size
}

// encode writes the identity encoding of s into b, which is exactly
// encodedLen(s) bytes long: for each line its node records and its home
// record, then the issue budgets and the write count, then every channel
// as a length byte and its messages, then the litmus bookkeeping. Mask
// bits that name no node are dropped.
func encode(b []byte, s *State) {
	n := s.nodes()
	full := uint8(1<<n - 1)
	k := 0
	for l := range s.H {
		for i := range n {
			nd := &s.N[l*n+i]
			r := b[k : k+nodeRecLen]
			r[0] = byte(nd.Cache)
			r[1] = byte(nd.Val)
			r[2] = byte(nd.Mshr)
			r[3] = byte(nd.Acks)
			r[4] = byte(nd.MVal)
			r[5] = boolByte(nd.MHave, 0) | boolByte(nd.Inv, 1) | boolByte(nd.Hint, 2) |
				boolByte(nd.RACOk, 3) | boolByte(nd.HasProd, 4) | boolByte(nd.PArmed, 5)
			r[6] = byte(nd.HintProd)
			r[7] = byte(nd.RACVal)
			r[8] = byte(nd.Txn)
			r[9] = byte(nd.GEp)
			r[10] = byte(nd.PDir)
			r[11] = nd.PShr & full
			r[12] = nd.PUpdSet & full
			r[13] = byte(nd.PInFlt)
			k += nodeRecLen
		}
		h := &s.H[l]
		r := b[k : k+homeRecLen]
		r[0] = byte(h.Dir)
		r[1] = h.Shr & full
		r[2] = byte(h.Owner)
		r[3] = byte(h.Pend)
		r[4] = boolByte(h.PendX, 0) | boolByte(h.DetRd, 1)
		r[5] = byte(h.PendFwd)
		r[6] = byte(h.MemVal)
		r[7] = byte(h.OwnTxn)
		r[8] = byte(h.PendTxn)
		r[9] = byte(h.DetW)
		r[10] = byte(h.DetRep)
		r[11] = byte(s.Latest[l])
		k += homeRecLen
	}
	for _, v := range s.Iss {
		b[k] = byte(v)
		k++
	}
	b[k] = byte(s.Writes)
	k++
	for _, q := range s.Ch {
		b[k] = byte(len(q))
		k++
		for i := range q {
			m := &q[i]
			binary.BigEndian.PutUint64(b[k:], uint64(m.Type)<<56|uint64(uint8(m.Line))<<48|
				uint64(uint8(m.Req))<<40|uint64(uint8(m.Val))<<32|uint64(uint8(m.Acks))<<24|
				uint64(m.Shr&full)<<16|uint64(m.Fwd)<<8|uint64(uint8(m.RTxn)))
			b[k+8] = byte(m.GEp)
			k += msgLen
		}
	}
	for i := range s.PC {
		b[k], b[k+1] = byte(s.PC[i]), byte(len(s.Obs[i]))
		k += 2
		for _, o := range s.Obs[i] {
			b[k] = byte(o)
			k++
		}
	}
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
// group. One instance per worker; its buffers are reused across states,
// so after warm-up the hot path does not allocate.
type canonicalizer struct {
	g       *symGroup
	out     []byte    // canonical's result
	best    []byte    // the smallest non-identity encoding found so far
	head    [8]uint64 // six-byte prefix of each node record of one line
	chOff   [64]int   // start of channel src*n+dst in the identity encoding
	chFound bool      // chOff holds the current state's channels
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
	c.out = c.appendCanonical(c.out[:0], s)
	return c.out
}

// appendCanonical appends the canonical encoding of s to dst and returns
// the extended slice. The identity encoding is written straight into dst
// and is the first candidate; a smaller element is written into c.best,
// and copied over it only if one wins.
func (c *canonicalizer) appendCanonical(dst []byte, s *State) []byte {
	size := encodedLen(s)
	dst, id := grow(dst, size)
	encode(id, s)
	if len(c.g.nodes) == 1 && len(c.g.lines) == 1 {
		return dst
	}
	n := s.nodes()
	c.chFound = false
	c.best = resize(c.best, size)
	best, won := id, false
	lineLen := n*nodeRecLen + homeRecLen
	others := uint8(1<<n-1) &^ 1
	for li, lp := range c.g.lines {
		first := id[int(lp.from[0])*lineLen:]
		if recHead(first) > recHead(best) {
			continue // every element of this line permutation is greater
		}
		// bound stays at the maximum unless the home node's record is the
		// same under every node permutation; then record 1 decides next,
		// and only node permutations moving a node with the smallest
		// prefix there can be the minimum.
		bound := ^uint64(0)
		if hp, shr, upd := first[6], first[11]&others, first[12]&others; (hp == 0 || hp == 0xff) &&
			(shr == 0 || shr == others) && (upd == 0 || upd == others) {
			for j := 1; j < n; j++ {
				c.head[j] = recHead(first[j*nodeRecLen:])
				bound = min(bound, c.head[j])
			}
		}
		for pi, p := range c.g.nodes {
			if pi == 0 && li == 0 || c.head[p.from[1]] > bound {
				continue
			}
			if c.less(id, best, n, p, lp) {
				c.permute(c.best, id, n, p, lp)
				best, won = c.best, true
			}
		}
	}
	if won {
		copy(id, c.best)
	}
	return dst
}

// recHead is the first six bytes of a record, none of which names a node.
func recHead(r []byte) uint64 { return binary.BigEndian.Uint64(r) >> 16 }

// The record readers below return a record's bytes, big-endian, from its
// identity encoding r as they read under node permutation p: the bytes
// that name nodes are renamed, the others kept.

// nodeHead returns bytes 0-7 of a node record; byte 6 is the hint
// producer.
func nodeHead(r []byte, p *nodePerm) uint64 {
	a := binary.BigEndian.Uint64(r)
	return a&^(0xff<<8) | uint64(p.id[uint8(a>>8)])<<8
}

// nodeTail returns bytes 8-13 of a node record in the top six bytes of a
// word; bytes 11 and 12 are the delegated sharer and update masks.
func nodeTail(r []byte, p *nodePerm) uint64 {
	b := binary.BigEndian.Uint64(r[8:])
	return b&^(0xffff<<24|0xffff) | uint64(p.mask[uint8(b>>32)])<<32 | uint64(p.mask[uint8(b>>24)])<<24
}

// homeWords returns a home record: bytes 0-7, then bytes 8-11. Byte 1 is
// the sharer mask; bytes 2, 3 and 9 the owner, pending requester and last
// writer.
func homeWords(r []byte, p *nodePerm) (uint64, uint32) {
	a := binary.BigEndian.Uint64(r)
	b := binary.BigEndian.Uint32(r[8:])
	a = a&^(0xffffff<<32) | uint64(p.mask[uint8(a>>48)])<<48 |
		uint64(p.id[uint8(a>>40)])<<40 | uint64(p.id[uint8(a>>32)])<<32
	b = b&^(0xff<<16) | uint32(p.id[uint8(b>>16)])<<16
	return a, b
}

// msgWord returns bytes 0-7 of a message (byte 8, the epoch, names
// nothing). Byte 1 is the line, renamed through lp; byte 2 the
// requester; byte 3 the value, a node id in a Hint; byte 5 the sharers.
func msgWord(r []byte, p *nodePerm, lp *linePerm) uint64 {
	a := binary.BigEndian.Uint64(r)
	val := uint8(a >> 32)
	if MsgType(a>>56) == MHint {
		val = p.id[val]
	}
	return a&^(0xffffff<<32|0xff<<16) | uint64(lp.to[uint8(a>>48)])<<48 |
		uint64(p.id[uint8(a>>40)])<<40 | uint64(val)<<32 | uint64(p.mask[uint8(a>>16)])<<16
}

// findChannels fills c.chOff from the identity encoding id of an n-node,
// `lines`-line state, once per state: most comparisons end before the
// channels.
func (c *canonicalizer) findChannels(id []byte, n, lines int) {
	if c.chFound {
		return
	}
	c.chFound = true
	k := lines*(n*nodeRecLen+homeRecLen) + n + 1
	for ci := range n * n {
		c.chOff[ci] = k
		k += 1 + msgLen*int(id[k])
	}
}

// less reports whether the encoding of the n-node state under (p, lp),
// read out of its identity encoding id, is below best. It stops at the
// first word that differs. The litmus tail is never permuted, so it is
// equal in every element and never decides.
func (c *canonicalizer) less(id, best []byte, n int, p *nodePerm, lp *linePerm) bool {
	lineLen := n*nodeRecLen + homeRecLen
	from := p.from[:n]
	k := 0
	for _, ol := range lp.from {
		row := id[int(ol)*lineLen:]
		for _, oj := range from {
			r := row[int(oj)*nodeRecLen:]
			if a, x := nodeHead(r, p), binary.BigEndian.Uint64(best[k:]); a != x {
				return a < x
			}
			if b, x := nodeTail(r, p), binary.BigEndian.Uint64(best[k+8:])&^0xffff; b != x {
				return b < x
			}
			k += nodeRecLen
		}
		a, b := homeWords(row[n*nodeRecLen:], p)
		if x := binary.BigEndian.Uint64(best[k:]); a != x {
			return a < x
		}
		if x := binary.BigEndian.Uint32(best[k+8:]); b != x {
			return b < x
		}
		k += homeRecLen
	}
	iss := id[k:]
	for _, oj := range from {
		if a, x := iss[oj], best[k]; a != x {
			return a < x
		}
		k++
	}
	if a, x := iss[n], best[k]; a != x {
		return a < x
	}
	k++
	c.findChannels(id, n, len(lp.from))
	for _, osrc := range from {
		for _, odst := range from {
			r := c.chOff[int(osrc)*n+int(odst)]
			msgs := int(id[r])
			if a, x := id[r], best[k]; a != x {
				return a < x
			}
			r++
			k++
			for range msgs {
				if a, x := msgWord(id[r:], p, lp), binary.BigEndian.Uint64(best[k:]); a != x {
					return a < x
				}
				if a, x := id[r+8], best[k+8]; a != x {
					return a < x
				}
				r += msgLen
				k += msgLen
			}
		}
	}
	return false
}

// permute writes the encoding of the n-node state under (p, lp) into out,
// reading it out of its identity encoding id. It writes records in order,
// and a word that runs past its record is overwritten by the next one.
func (c *canonicalizer) permute(out, id []byte, n int, p *nodePerm, lp *linePerm) {
	lineLen := n*nodeRecLen + homeRecLen
	from := p.from[:n]
	k := 0
	for _, ol := range lp.from {
		row := id[int(ol)*lineLen:]
		for _, oj := range from {
			r := row[int(oj)*nodeRecLen:]
			binary.BigEndian.PutUint64(out[k:], nodeHead(r, p))
			binary.BigEndian.PutUint64(out[k+8:], nodeTail(r, p))
			k += nodeRecLen
		}
		a, b := homeWords(row[n*nodeRecLen:], p)
		binary.BigEndian.PutUint64(out[k:], a)
		binary.BigEndian.PutUint32(out[k+8:], b)
		k += homeRecLen
	}
	iss := id[k:]
	for _, oj := range from {
		out[k] = iss[oj]
		k++
	}
	out[k] = iss[n]
	k++
	c.findChannels(id, n, len(lp.from))
	for _, osrc := range from {
		for _, odst := range from {
			r := c.chOff[int(osrc)*n+int(odst)]
			msgs := int(id[r])
			out[k] = id[r]
			r++
			k++
			for range msgs {
				binary.BigEndian.PutUint64(out[k:], msgWord(id[r:], p, lp))
				out[k+8] = id[r+8]
				r += msgLen
				k += msgLen
			}
		}
	}
	copy(out[k:], id[k:])
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
