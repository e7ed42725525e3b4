package protocol

func init() { Register(dsi{}) }

// dsi is the dynamic self-invalidation baseline (Lebeck & Wood / Lai &
// Falsafi, the related work the paper's §5 compares against): the
// write-invalidate base where owners of detected producer-consumer
// lines eagerly downgrade after their write burst, converting later
// 3-hop reads into 2-hop home hits. It has no delegation and no update
// pushes; its mechanism is the self-invalidation timer, which runs on
// the delayed-intervention interval.
type dsi struct{}

func (dsi) Name() string { return "dsi" }

func (dsi) Description() string {
	return "write-invalidate + dynamic self-invalidation of producer-consumer lines"
}

func (dsi) Mechanism() Mechanism { return SelfInvalidation }

func (dsi) SharedWrite(v WriteView) WriteDecision { return Invalidate }

func (dsi) UpdateStreakLimit() int { return 0 }
