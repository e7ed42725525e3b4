package workload

import (
	"fmt"
	"math/rand"

	"pccsim/internal/cpu"
)

// Em3D models the Split-C electromagnetic-wave kernel: a bipartite graph
// of E and H field nodes updated in alternating half-steps. Two parameters
// govern sharing, exactly as in the paper (§3.2): the distribution span
// (how many consumers each producer has — we use 5, giving the 67.8%/32.2%
// one-or-two-consumer split of Table 3 per line) and the remote-links
// probability (15%: the fraction of graph edges crossing processors).
// Communication dominates computation, which is why the paper sees the
// largest gains here (33-40% speedup, 60% traffic reduction) including the
// removal of the post-barrier "reload flurry" NACKs.
func Em3D() *Workload {
	return &Workload{
		Name:      "em3d",
		PaperSize: "38400 nodes, degree 5, 15% remote",
		OurSize: func(p Params) string {
			return fmt.Sprintf("%d graph nodes/processor, span 5, 15%% remote",
				2*64*p.scale())
		},
		Build: buildEm3D,
	}
}

func buildEm3D(p Params) [][]cpu.Op {
	seed := p.Seed
	if seed == 0 {
		seed = 38400
	}
	rng := rand.New(rand.NewSource(seed))
	scale := p.scale()
	iters := p.iters(8)
	nodes := p.Nodes

	linesPerNode := 64 * scale // per field (E and H)

	r := newRegion()
	eField := ownedArray(r, nodes, linesPerNode)
	hField := ownedArray(r, nodes, linesPerNode)

	// Remote links: 15% of lines are consumed remotely, by 1 (67.8%) or
	// 2 (32.2%) stable neighbours. A line's consumers are always the next
	// count nodes after its owner (consumersFor), so only the count is
	// kept, indexed by owner*linesPerNode+line; 0 means no remote reader.
	consumerCounts := func() []uint8 {
		counts := make([]uint8, nodes*linesPerNode)
		for n := 0; n < nodes; n++ {
			for i := 0; i < linesPerNode; i++ {
				if rng.Float64() >= 0.15 {
					continue
				}
				count := 1
				if rng.Float64() < 0.322 {
					count = 2
				}
				counts[n*linesPerNode+i] = uint8(min(count, nodes-1))
			}
		}
		return counts
	}
	eCons := consumerCounts()
	hCons := consumerCounts()

	prog := NewBuilder(nodes)
	firstTouch(prog, nodes, eField, linesPerNode)
	firstTouch(prog, nodes, hField, linesPerNode)

	for it := 0; it < iters; it++ {
		// Per-node field update arithmetic abstracted into one compute
		// block per iteration; em3d stays the most communication-bound
		// of the seven, as in the paper.
		for n := 0; n < nodes; n++ {
			prog.Compute(n, 12400)
		}
		// E half-step: owners update E from H; consumers then read the
		// remote E lines they depend on.
		for n := 0; n < nodes; n++ {
			for i := 0; i < linesPerNode; i++ {
				prog.Compute(n, 6)
				prog.Store(n, eField(n, i))
			}
		}
		prog.Barrier()
		for n := 0; n < nodes; n++ {
			for i := 0; i < linesPerNode; i++ {
				for j := 1; j <= int(eCons[n*linesPerNode+i]); j++ {
					c := (n + j) % nodes
					prog.Load(c, eField(n, i))
					prog.Compute(c, 6)
				}
			}
		}
		prog.Barrier()
		// H half-step, symmetric.
		for n := 0; n < nodes; n++ {
			for i := 0; i < linesPerNode; i++ {
				prog.Compute(n, 6)
				prog.Store(n, hField(n, i))
			}
		}
		prog.Barrier()
		for n := 0; n < nodes; n++ {
			for i := 0; i < linesPerNode; i++ {
				for j := 1; j <= int(hCons[n*linesPerNode+i]); j++ {
					c := (n + j) % nodes
					prog.Load(c, hField(n, i))
					prog.Compute(c, 6)
				}
			}
		}
		prog.Barrier()
	}
	return prog.Ops()
}
