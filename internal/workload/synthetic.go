package workload

import (
	"fmt"

	"pccsim/internal/cpu"
	"pccsim/internal/sim"
)

// SynthParams parameterizes the generic producer-consumer generator: the
// knobs the seven fixed benchmarks hard-wire, exposed for exploring the
// mechanisms on arbitrary sharing shapes (em3d's "distribution span" and
// "remote links" generalized).
type SynthParams struct {
	Nodes int
	// LinesPerProducer is each node's produced working set; sized against
	// the delegate cache it determines table pressure (Figure 11).
	LinesPerProducer int
	// Consumers is the stable consumer-set size per line; against the
	// RAC it determines consumer inflow (Figure 12) and drives the
	// Table 3 bucket.
	Consumers int
	// RemoteHomeFraction is the fraction of lines first-touched away
	// from their producer — the delegation opportunity (0 = every
	// producer is its own home; 1 = every line needs delegation).
	RemoteHomeFraction float64
	// ComputePerOp is the modeled computation per memory operation; it
	// sets where the run sits between communication- and compute-bound.
	ComputePerOp sim.Time
	// Iters is the number of write/read rounds.
	Iters int
}

// DefaultSynthParams is a communication-heavy, delegation-friendly shape.
func DefaultSynthParams(nodes int) SynthParams {
	return SynthParams{
		Nodes:              nodes,
		LinesPerProducer:   16,
		Consumers:          2,
		RemoteHomeFraction: 0.5,
		ComputePerOp:       10,
		Iters:              8,
	}
}

// Validate checks the parameters.
func (p SynthParams) Validate() error {
	if p.Nodes < 2 {
		return fmt.Errorf("workload: synthetic needs >= 2 nodes, got %d", p.Nodes)
	}
	if p.LinesPerProducer <= 0 || p.Iters <= 0 {
		return fmt.Errorf("workload: LinesPerProducer and Iters must be positive")
	}
	if p.Consumers < 1 || p.Consumers > p.Nodes-1 {
		return fmt.Errorf("workload: Consumers = %d, want 1..%d", p.Consumers, p.Nodes-1)
	}
	if p.RemoteHomeFraction < 0 || p.RemoteHomeFraction > 1 {
		return fmt.Errorf("workload: RemoteHomeFraction = %f, want [0,1]", p.RemoteHomeFraction)
	}
	return nil
}

// Synthetic builds the generic producer-consumer program: every node owns
// LinesPerProducer lines, writes them each round, and the stable consumer
// sets read them after a barrier.
func Synthetic(p SynthParams) ([][]cpu.Op, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return buildOps(p.Nodes, func(prog *Builder) { genSynthetic(p, prog) }), nil
}

func genSynthetic(p SynthParams, prog *Builder) {
	r := newRegion()
	lines := ownedArray(r, p.Nodes, p.LinesPerProducer)

	// First touch: a deterministic slice of each producer's lines is
	// placed at the next node over (the remote-home fraction).
	remote := int(p.RemoteHomeFraction * float64(p.LinesPerProducer))
	for n := 0; n < p.Nodes; n++ {
		for i := 0; i < p.LinesPerProducer; i++ {
			toucher := n
			if i < remote {
				toucher = (n + 1) % p.Nodes
			}
			prog.Store(toucher, lines(n, i))
		}
	}
	prog.Barrier()
	// The owners warm their lines.
	for n := 0; n < p.Nodes; n++ {
		for i := 0; i < p.LinesPerProducer; i++ {
			prog.Store(n, lines(n, i))
		}
	}
	prog.Barrier()

	for it := 0; it < p.Iters; it++ {
		for n := 0; n < p.Nodes; n++ {
			for i := 0; i < p.LinesPerProducer; i++ {
				prog.Compute(n, p.ComputePerOp)
				prog.Store(n, lines(n, i))
			}
		}
		prog.Barrier()
		for n := 0; n < p.Nodes; n++ {
			for i := 0; i < p.LinesPerProducer; i++ {
				for _, c := range consumersFor(n, p.Consumers, p.Nodes) {
					prog.Load(c, lines(n, i))
					prog.Compute(c, p.ComputePerOp)
				}
			}
		}
		prog.Barrier()
	}
}
