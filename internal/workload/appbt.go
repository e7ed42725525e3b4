package workload

import (
	"fmt"

	"pccsim/internal/msg"
)

// Appbt models the NAS BT application: a 3D stencil in which the cube is
// divided into sub-cubes, one per processor, and Gaussian elimination
// sweeps all three dimensions. Sub-cube faces are producer-consumer with
// wide consumer sets (Table 3: 91.6% of patterns have >4 consumers —
// eight here, because face, edge and corner data serve several neighbours
// at once).
// The defining property (§3.2, Figure 12) is the *volume* of consumed
// data: each processor pulls in more face lines per sweep than a 32 KB RAC
// can hold, so the speculative updates thrash unless the RAC grows — the
// mirror image of MG's delegate-cache pressure.
func Appbt() *Workload {
	return &Workload{
		Name:      "appbt",
		PaperSize: "16*16*16 nodes, 60 timesteps",
		OurSize: func(p Params) string {
			return fmt.Sprintf("3x%d face lines/processor, 8 neighbours, %d timesteps",
				40*p.scale(), p.iters(4))
		},
		Build: build(genAppbt),
	}
}

func genAppbt(p Params, prog *Builder) {
	scale := p.scale()
	iters := p.iters(4)
	nodes := p.Nodes

	faceGroup := 40 * scale // face lines per sweep dimension per node
	interior := 32 * scale  // private interior lines per node
	neighbours := 8         // consumer-set size (>4, per Table 3)
	if neighbours > nodes-1 {
		neighbours = nodes - 1
	}

	r := newRegion()
	// One face group per sweep dimension. A sweep only rewrites the
	// faces orthogonal to its direction, so the *producer-side* working
	// set stays around one group (~32 lines, a 32-entry delegate cache
	// suffices), while the *consumer-side* inflow accumulates across all
	// three dimensions and five neighbours — which is exactly the
	// paper's Appbt: the RAC, not the delegate cache, is the bottleneck.
	faces := make([]func(owner, i int) msg.Addr, 3)
	for d := range faces {
		faces[d] = ownedArray(r, nodes, faceGroup)
	}
	inner := ownedArray(r, nodes, interior)

	// Face data is initialized during the setup sweep whose layout
	// follows a different dimension than the steady-state solve, so
	// face lines are homed away from their producer.
	for d := range faces {
		placedFirstTouch(prog, nodes, faces[d], faceGroup,
			func(owner int) int { return (owner + 3) % nodes })
	}
	firstTouch(prog, nodes, inner, interior)

	for it := 0; it < iters; it++ {
		// Three dimensional sweeps per timestep.
		for sweep := 0; sweep < 3; sweep++ {
			// Per-sweep Gaussian elimination compute block.
			for n := 0; n < nodes; n++ {
				prog.Compute(n, 27000)
			}
			// Local elimination, then publish this dimension's faces.
			for n := 0; n < nodes; n++ {
				for i := 0; i < interior; i++ {
					prog.Load(n, inner(n, i))
					prog.Compute(n, 25)
					prog.Store(n, inner(n, i))
				}
				for i := 0; i < faceGroup; i++ {
					prog.Compute(n, 6)
					prog.Store(n, faces[sweep](n, i))
				}
			}
			prog.Barrier()
			// Every neighbour consumes the freshly swept faces.
			for n := 0; n < nodes; n++ {
				for i := 0; i < faceGroup; i++ {
					for _, c := range consumersFor(n, neighbours, nodes) {
						prog.Load(c, faces[sweep](n, i))
						prog.Compute(c, 6)
					}
				}
			}
			prog.Barrier()
		}
	}
}
