package protocol

func init() { Register(mesi{}) }

// mesi is the plain MESI-style write-invalidate directory protocol — the
// paper's own comparison base (an SGI-Origin-like home-based protocol
// with NACK/retry, no silent exclusive grants). It runs no optional
// mechanism, so configurations that size delegation or updates are
// rejected up front and every shared write invalidates.
type mesi struct{}

func (mesi) Name() string { return "mesi" }

func (mesi) Description() string {
	return "MESI-style write-invalidate directory baseline (SGI-Origin-like, no adaptive mechanisms)"
}

func (mesi) Mechanism() Mechanism { return None }

func (mesi) SharedWrite(v WriteView) WriteDecision { return Invalidate }

func (mesi) UpdateStreakLimit() int { return 0 }
