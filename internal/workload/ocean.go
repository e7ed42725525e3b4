package workload

import (
	"fmt"

	"pccsim/internal/msg"
)

// Ocean models SPLASH-2 Ocean (contiguous partitions; 258x258 in the
// paper): large-scale ocean movement with nearest-neighbour communication.
// Each processor owns a horizontal strip of the grid; only the boundary
// rows are shared, and each boundary row has exactly one consumer — the
// adjacent strip's owner. Table 3: 97.7% single-consumer.
func Ocean() *Workload {
	return &Workload{
		Name:      "ocean",
		PaperSize: "258*258 array, 1e-7 error tolerance",
		OurSize: func(p Params) string {
			return fmt.Sprintf("%d rows x %d line-columns per processor, %d processors",
				4*p.scale(), 8*p.scale(), p.Nodes)
		},
		Build: build(genOcean),
	}
}

func genOcean(p Params, prog *Builder) {
	scale := p.scale()
	iters := p.iters(8)
	nodes := p.Nodes

	rowsPerNode := 4 * scale
	lineCols := 8 * scale // lines per grid row

	r := newRegion()
	grid := ownedArray(r, nodes, rowsPerNode*lineCols)
	at := func(owner, row, col int) msg.Addr { return grid(owner, row*lineCols+col) }

	firstTouch(prog, nodes, grid, rowsPerNode*lineCols)

	for it := 0; it < iters; it++ {
		// Interior relaxation work abstracted into one compute block
		// per processor per iteration (see package comment on
		// compute/communication calibration).
		for n := 0; n < nodes; n++ {
			prog.Compute(n, 24000)
		}
		// Relaxation sweep: read the neighbours' adjacent boundary
		// rows (the producer-consumer lines), then update own strip.
		for n := 0; n < nodes; n++ {
			if n > 0 {
				for c := 0; c < lineCols; c++ {
					prog.Load(n, at(n-1, rowsPerNode-1, c))
					prog.Compute(n, 10)
				}
			}
			if n < nodes-1 {
				for c := 0; c < lineCols; c++ {
					prog.Load(n, at(n+1, 0, c))
					prog.Compute(n, 10)
				}
			}
			// Interior update: node-private reads and writes.
			for row := 0; row < rowsPerNode; row++ {
				for c := 0; c < lineCols; c++ {
					prog.Load(n, at(n, row, c))
					prog.Compute(n, 12)
					prog.Store(n, at(n, row, c))
				}
			}
		}
		prog.Barrier()
	}
}
