package workload

import "fmt"

// CG models the NAS conjugate-gradient kernel. Three paper-documented
// properties shape it (§3.2): producer-consumer sharing appears only in
// some phases (the vector segments broadcast for the sparse matrix-vector
// product, read by nearly everyone — Table 3: 99.7% of patterns have >4
// consumers); the sparse representation causes heavy false sharing (lines
// written alternately by different processors, which the conservative
// line-grained detector must refuse to mark); and remote misses are not
// the bottleneck — per-row compute dominates — so even removing ~60% of
// them buys only a ~6% speedup.
func CG() *Workload {
	return &Workload{
		Name:      "cg",
		PaperSize: "1400 nodes, 15 iteration",
		OurSize: func(p Params) string {
			return fmt.Sprintf("%d vector lines/processor, %d CG iterations",
				4*p.scale(), p.iters(8))
		},
		Build: build(genCG),
	}
}

func genCG(p Params, prog *Builder) {
	scale := p.scale()
	iters := p.iters(8)
	nodes := p.Nodes

	vecLines := 4 * scale // broadcast vector segment per node
	fsLines := 2 * nodes  // falsely shared accumulator lines
	rowsPerNode := 16 * scale

	r := newRegion()
	vec := ownedArray(r, nodes, vecLines)
	fsBase := r.array(fsLines)

	firstTouch(prog, nodes, vec, vecLines)
	for i := 0; i < fsLines; i++ {
		prog.Store(i%nodes, lineAddr(fsBase, i))
	}
	prog.Barrier()

	readers := nodes - 1
	if readers > 8 {
		readers = 8
	}

	for it := 0; it < iters; it++ {
		// The sparse matvec inner loops dominate CG's runtime; remote
		// misses are a small fraction of it (the paper's explanation
		// for CG's modest 6% gain despite removing ~60% of them).
		for n := 0; n < nodes; n++ {
			prog.Compute(n, 195000)
		}
		// p-vector update: each node republishes its segment.
		for n := 0; n < nodes; n++ {
			for i := 0; i < vecLines; i++ {
				prog.Compute(n, 8)
				prog.Store(n, vec(n, i))
			}
		}
		prog.Barrier()
		// Sparse matvec: every node reads most other segments (the
		// >4-consumer broadcast) with dominant per-row compute.
		for n := 0; n < nodes; n++ {
			for j := 1; j <= readers; j++ {
				src := (n + j) % nodes
				for i := 0; i < vecLines; i++ {
					prog.Load(n, vec(src, i))
					prog.Compute(n, 20)
				}
			}
			for row := 0; row < rowsPerNode; row++ {
				prog.Compute(n, 120) // sparse row dot product
			}
			// Reduction into falsely shared accumulators: two
			// nodes alternate writes to the same line, defeating
			// any line-grained producer-consumer detector.
			fs := (n / 2) * 2 % fsLines
			prog.Load(n, lineAddr(fsBase, fs))
			prog.Store(n, lineAddr(fsBase, fs))
		}
		prog.Barrier()
	}
}
