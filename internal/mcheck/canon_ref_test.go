package mcheck

// The reference canonicaliser: the original permute-then-encode path, kept
// as a test oracle for the table-driven, early-exit canonicaliser in
// canon.go. It materialises every group element as plain index slices,
// encodes the state in full under each one, and keeps the smallest
// encoding. Slow and allocation-heavy, but obviously correct.

// encodePerm appends the encoding of s under a node permutation p and line
// permutation lp (both old-index → new-index; p[0] must be 0) to buf. The
// encoding walks the state in *new* index order so that two states in the
// same orbit produce byte-identical output under the right permutations.
func encodePerm(buf []byte, s *State, p, lp []int) []byte {
	n := s.nodes()
	ren := func(id int8) int8 {
		if id < 0 {
			return id
		}
		return int8(p[id])
	}
	renMask := func(m uint8) uint8 {
		if m == 0 {
			return 0
		}
		var out uint8
		for i := 0; i < n; i++ {
			if m&bit(int8(i)) != 0 {
				out |= bit(int8(p[i]))
			}
		}
		return out
	}

	for nl := range s.H {
		ol := nl
		if len(lp) > 1 {
			ol = nodeIndexUnder(lp, nl)
		}
		for nj := 0; nj < n; nj++ {
			nd := s.node(ol, nodeIndexUnder(p, nj))
			buf = append(buf,
				byte(nd.Cache), byte(nd.Val), byte(nd.Mshr), byte(nd.Acks), byte(nd.MVal),
				boolByte(nd.MHave, 0)|boolByte(nd.Inv, 1)|boolByte(nd.Hint, 2)|
					boolByte(nd.RACOk, 3)|boolByte(nd.HasProd, 4)|boolByte(nd.PArmed, 5),
				byte(ren(nd.HintProd)), byte(nd.RACVal), byte(nd.Txn), byte(nd.GEp),
				byte(nd.PDir), renMask(nd.PShr), renMask(nd.PUpdSet), byte(nd.PInFlt))
		}
		h := &s.H[ol]
		buf = append(buf, byte(h.Dir), renMask(h.Shr), byte(ren(h.Owner)), byte(ren(h.Pend)),
			boolByte(h.PendX, 0)|boolByte(h.DetRd, 1), byte(h.PendFwd), byte(h.MemVal),
			byte(h.OwnTxn), byte(h.PendTxn), byte(ren(h.DetW)), byte(h.DetRep))
		buf = append(buf, byte(s.Latest[ol]))
	}
	for nj := 0; nj < n; nj++ {
		buf = append(buf, byte(s.Iss[nodeIndexUnder(p, nj)]))
	}
	buf = append(buf, byte(s.Writes))
	for nsrc := 0; nsrc < n; nsrc++ {
		osrc := nodeIndexUnder(p, nsrc)
		for ndst := 0; ndst < n; ndst++ {
			q := s.Ch[osrc*n+nodeIndexUnder(p, ndst)]
			buf = append(buf, byte(len(q)))
			for _, m := range q {
				val := m.Val
				if m.Type == MHint {
					val = ren(val) // Hint reuses Val as a node id
				}
				line := int8(m.Line)
				if len(lp) > 1 {
					line = int8(lp[m.Line])
				}
				buf = append(buf, byte(m.Type), byte(line), byte(ren(m.Req)), byte(val),
					byte(m.Acks), renMask(m.Shr), byte(m.Fwd), byte(m.RTxn), byte(m.GEp))
			}
		}
	}
	if s.PC != nil {
		for i := range s.PC {
			buf = append(buf, byte(s.PC[i]), byte(len(s.Obs[i])))
			for _, o := range s.Obs[i] {
				buf = append(buf, byte(o))
			}
		}
	}
	return buf
}

// nodeIndexUnder returns the old index that permutation p maps to new
// index nj, by linear scan.
func nodeIndexUnder(p []int, nj int) int {
	for oi, v := range p {
		if v == nj {
			return oi
		}
	}
	panic("mcheck: not a permutation")
}

// homeFixedPerms enumerates permutations of 0..n-1 that fix 0, identity
// first.
func homeFixedPerms(n int) [][]int {
	rest := allPerms(n - 1)
	out := make([][]int, len(rest))
	for i, r := range rest {
		p := make([]int, n)
		for j, v := range r {
			p[j+1] = v + 1
		}
		out[i] = p
	}
	return out
}

// allPerms enumerates permutations of 0..n-1, identity first.
func allPerms(n int) [][]int {
	if n <= 1 {
		return [][]int{identityPerm(n)}
	}
	var out [][]int
	p := identityPerm(n)
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), p...))
			return
		}
		for i := k; i < n; i++ {
			p[k], p[i] = p[i], p[k]
			rec(k + 1)
			p[k], p[i] = p[i], p[k]
		}
	}
	rec(0)
	return out
}

// refCanonicalizer is the oracle's permutation group.
type refCanonicalizer struct {
	perms  [][]int
	lperms [][]int
}

func newRefCanonicalizer(n, lines int, identity bool) *refCanonicalizer {
	if identity {
		return &refCanonicalizer{[][]int{identityPerm(n)}, [][]int{identityPerm(lines)}}
	}
	return &refCanonicalizer{homeFixedPerms(n), allPerms(lines)}
}

// canonical encodes s under every group element in full and returns the
// lexicographically smallest encoding.
func (c *refCanonicalizer) canonical(s *State) []byte {
	best := encodePerm(nil, s, c.perms[0], c.lperms[0])
	for pi, p := range c.perms {
		for li, lp := range c.lperms {
			if pi == 0 && li == 0 {
				continue
			}
			if buf := encodePerm(nil, s, p, lp); lexLess(buf, best) {
				best = buf
			}
		}
	}
	return best
}

// lexLess reports a < b for equal-length encodings.
func lexLess(a, b []byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
