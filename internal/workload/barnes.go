package workload

import (
	"fmt"
	"math/rand"
)

// Barnes models the SPLASH-2 Barnes-Hut N-body simulation (16384 bodies in
// the paper). The octree's internal cells are written by their owning
// processor during tree rebuild and read by many processors during force
// computation, which makes cells producer-consumer lines with large
// consumer sets: Table 3 reports 61.7% of Barnes' patterns have more than
// four consumers. Bodies are node-private.
func Barnes() *Workload {
	return &Workload{
		Name:      "barnes",
		PaperSize: "16384 nodes, 123 seed",
		OurSize: func(p Params) string {
			return fmt.Sprintf("%d bodies, %d octree cells, seed 123",
				32*p.scale()*p.Nodes, 40*p.Nodes*p.scale())
		},
		Build: build(genBarnes),
	}
}

func genBarnes(p Params, prog *Builder) {
	seed := p.Seed
	if seed == 0 {
		seed = 123
	}
	rng := rand.New(rand.NewSource(seed))
	scale := p.scale()
	iters := p.iters(6)
	nodes := p.Nodes

	cellsPerNode := 40 * scale // ~27 remote-homed cells per producer
	bodiesPerNode := 32 * scale

	r := newRegion()
	cellAddr := ownedArray(r, nodes, cellsPerNode)
	bodyAddr := ownedArray(r, nodes, bodiesPerNode)

	// Octree cells: stable consumer sets drawn from the Barnes row of
	// Table 3 (13.9 / 6.8 / 9.4 / 8.1 / 61.7).
	cellConsumers := make([][][]int, nodes)
	for n := 0; n < nodes; n++ {
		cellConsumers[n] = make([][]int, cellsPerNode)
		for c := 0; c < cellsPerNode; c++ {
			k := sampleConsumerCount(rng, [4]float64{13.9, 6.8, 9.4, 8.1}, min(9, nodes-1))
			cellConsumers[n][c] = consumersFor(n, k, nodes)
		}
	}

	// First touch: the initial octree is built before the bodies settle
	// into their steady-state owners, so most cells are homed away from
	// the processor that rebuilds them each iteration (bodies move; the
	// cell-to-processor assignment does not follow the pages).
	for n := 0; n < nodes; n++ {
		for c := 0; c < cellsPerNode; c++ {
			builder := (n + 5) % nodes
			if c%3 == 0 {
				builder = n // some cells do land at home
			}
			prog.Store(builder, cellAddr(n, c))
		}
	}
	prog.Barrier()
	firstTouch(prog, nodes, bodyAddr, bodiesPerNode)

	for it := 0; it < iters; it++ {
		// Local physics (integration, cell-opening tests) abstracted
		// into one compute block per processor per iteration; sized so
		// the baseline spends the paper's share of time on remote
		// misses.
		for n := 0; n < nodes; n++ {
			prog.Compute(n, 100800)
		}
		// Force computation: every consumer traverses the cells it
		// needs, interleaved with per-interaction compute.
		for n := 0; n < nodes; n++ {
			for c := 0; c < cellsPerNode; c++ {
				for _, reader := range cellConsumers[n][c] {
					prog.Load(reader, cellAddr(n, c))
					prog.Compute(reader, 40)
				}
			}
		}
		// Body updates are node-private work.
		for n := 0; n < nodes; n++ {
			for b := 0; b < bodiesPerNode; b++ {
				prog.Load(n, bodyAddr(n, b))
				prog.Compute(n, 20)
				prog.Store(n, bodyAddr(n, b))
			}
		}
		prog.Barrier()
		// Tree rebuild: owners rewrite their cells (a short write
		// burst per cell, as positions and bounds update together).
		for n := 0; n < nodes; n++ {
			for c := 0; c < cellsPerNode; c++ {
				prog.Compute(n, 15)
				prog.Store(n, cellAddr(n, c))
				prog.Store(n, cellAddr(n, c)+32)
			}
		}
		prog.Barrier()
	}
}
