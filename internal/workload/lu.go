package workload

import "fmt"

// LU models the NAS LU benchmark: an SSOR solve of the 3D Navier-Stokes
// equations with a 2D partitioning that assigns vertical columns of the
// grid to processors. Each sweep propagates boundary data to the next
// processor in the pipeline, so boundary lines are producer-consumer with
// exactly one consumer (Table 3: 99.4%) and heavy factorization compute
// sits between exchanges.
func LU() *Workload {
	return &Workload{
		Name:      "lu",
		PaperSize: "16*16*16 nodes, 50 testes",
		OurSize: func(p Params) string {
			return fmt.Sprintf("%d boundary lines/processor, %d SSOR sweeps",
				8*p.scale(), p.iters(10))
		},
		Build: build(genLU),
	}
}

func genLU(p Params, prog *Builder) {
	scale := p.scale()
	iters := p.iters(10)
	nodes := p.Nodes

	boundaryLines := 8 * scale
	interiorLines := 24 * scale

	r := newRegion()
	// The lower- and upper-triangular sweeps propagate different data
	// (L and U factors), each with exactly one downstream consumer.
	lower := ownedArray(r, nodes, boundaryLines)
	upper := ownedArray(r, nodes, boundaryLines)
	interior := ownedArray(r, nodes, interiorLines)

	firstTouch(prog, nodes, lower, boundaryLines)
	firstTouch(prog, nodes, upper, boundaryLines)
	firstTouch(prog, nodes, interior, interiorLines)

	for it := 0; it < iters; it++ {
		// Block factorization compute per sweep (see package comment
		// on compute/communication calibration).
		for n := 0; n < nodes; n++ {
			prog.Compute(n, 2140)
		}
		// Lower-triangular sweep: read the upstream neighbour's
		// boundary, factorize the local block, publish our boundary.
		for n := 0; n < nodes; n++ {
			if n > 0 {
				for i := 0; i < boundaryLines; i++ {
					prog.Load(n, lower(n-1, i))
					prog.Compute(n, 15)
				}
			}
			for i := 0; i < interiorLines; i++ {
				prog.Load(n, interior(n, i))
				prog.Compute(n, 30)
				prog.Store(n, interior(n, i))
			}
			for i := 0; i < boundaryLines; i++ {
				prog.Compute(n, 10)
				prog.Store(n, lower(n, i))
			}
		}
		prog.Barrier()
		// Upper-triangular sweep: the pipeline runs the other way.
		for n := 0; n < nodes; n++ {
			prog.Compute(n, 2140)
		}
		for n := 0; n < nodes; n++ {
			if n < nodes-1 {
				for i := 0; i < boundaryLines; i++ {
					prog.Load(n, upper(n+1, i))
					prog.Compute(n, 15)
				}
			}
			for i := 0; i < interiorLines; i++ {
				prog.Load(n, interior(n, i))
				prog.Compute(n, 30)
				prog.Store(n, interior(n, i))
			}
			for i := 0; i < boundaryLines; i++ {
				prog.Compute(n, 10)
				prog.Store(n, upper(n, i))
			}
		}
		prog.Barrier()
	}
}
