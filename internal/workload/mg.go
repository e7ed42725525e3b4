package workload

import (
	"fmt"

	"pccsim/internal/msg"
)

// MG models the NAS multigrid kernel: V-cycles over a hierarchy of grids.
// At the finest level boundary exchange is nearest-neighbour (single
// consumer — Table 3: 78.3% one consumer); at coarser levels dependent
// points land on different processors so consumer sets widen. The defining
// property (§3.2, Figure 11) is the *number of distinct producer-consumer
// lines*: more than a 32-entry delegate cache can hold, so the small
// configuration thrashes on capacity undelegations and only the 1K-entry
// table captures the full benefit.
func MG() *Workload {
	return &Workload{
		Name:      "mg",
		PaperSize: "32*32*32 nodes, 4 steps",
		OurSize: func(p Params) string {
			return fmt.Sprintf("4-level V-cycle, %d boundary lines/processor at the finest level",
				48*p.scale())
		},
		Build: build(genMG),
	}
}

func genMG(p Params, prog *Builder) {
	scale := p.scale()
	iters := p.iters(4)
	nodes := p.Nodes

	// Lines per level per node; level 0 is finest. Levels 1..3 are
	// "misplaced" (see below), so at scale 1 each node produces 144
	// remote-homed producer-consumer lines — far beyond a 32-entry
	// producer table (the Figure 11 pressure) while the per-consumer
	// inflow stays within a 32 KB RAC (MG, unlike Appbt, is not
	// RAC-bound in the paper).
	levelLines := []int{64 * scale, 64 * scale, 48 * scale, 32 * scale}
	// Consumers per line widen at the coarsest level.
	levelConsumers := []int{1, 1, 1, 2}

	r := newRegion()
	grids := make([]func(owner, i int) msg.Addr, len(levelLines))
	for l := range levelLines {
		grids[l] = ownedArray(r, nodes, levelLines[l])
	}

	// The finest grid is first-touched by its owners (boundary rows stay
	// home); the coarser grids are produced by restriction from finer
	// data, and their pages were first touched under the finer levels'
	// distribution — so coarse-level producers are remote from their
	// homes, which is what drives delegation and the Figure 11
	// delegate-cache pressure (144 lines per node need entries).
	firstTouch(prog, nodes, grids[0], levelLines[0])
	for l := 1; l < len(levelLines); l++ {
		l := l
		placedFirstTouch(prog, nodes, grids[l], levelLines[l],
			func(owner int) int { return (owner + nodes/2) % nodes })
	}

	// exchange runs one level's smooth-and-exchange: owners update their
	// boundary lines, then each line's consumer set reads them.
	exchange := func(l int) {
		lines, ncons := levelLines[l], levelConsumers[l]
		for n := 0; n < nodes; n++ {
			for i := 0; i < lines; i++ {
				prog.Compute(n, 8)
				prog.Store(n, grids[l](n, i))
			}
		}
		prog.Barrier()
		for n := 0; n < nodes; n++ {
			for i := 0; i < lines; i++ {
				for _, c := range consumersFor(n, ncons, nodes) {
					prog.Load(c, grids[l](n, i))
					prog.Compute(c, 8)
				}
			}
		}
		prog.Barrier()
	}

	for it := 0; it < iters; it++ {
		// Residual/smoothing arithmetic abstracted into one compute
		// block per V-cycle (see package comment on calibration).
		for n := 0; n < nodes; n++ {
			prog.Compute(n, 432000)
		}
		// Down the V: finest to coarsest.
		for l := 0; l < len(levelLines); l++ {
			exchange(l)
		}
		// Back up: coarsest to finest.
		for l := len(levelLines) - 2; l >= 0; l-- {
			exchange(l)
		}
	}
}
