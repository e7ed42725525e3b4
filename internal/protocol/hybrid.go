package protocol

func init() { Register(hybrid{}) }

// hybridStreakLimit is how many consecutive pushed updates a sharer
// absorbs without reading any of them before it self-invalidates and
// drops out of the update set. Dovgopol & Rosonke's hybrid schemes key
// the update/invalidate choice on sharer stability; a small saturating
// per-copy counter is the hardware-plausible form of that test.
const hybridStreakLimit = 4

// hybrid is a hybrid update/invalidate directory protocol after Dovgopol
// & Rosonke (arXiv:1502.00101): writes to lines the detector classifies
// producer-consumer commit at the home and push the fresh data to the
// current sharers instead of invalidating them, so stable consumers read
// locally without a miss. Sharers that let updates pile up unread
// self-invalidate after hybridStreakLimit pushes, degrading the line
// back toward write-invalidate — the "adaptive hybrid" rule. Writes to
// lines without producer-consumer evidence invalidate classically.
type hybrid struct{}

func (hybrid) Name() string { return "hybrid" }

func (hybrid) Description() string {
	return "hybrid update/invalidate (pushes updates to stable sharers, per Dovgopol & Rosonke)"
}

func (hybrid) Mechanism() Mechanism { return UpdatePush }

// SharedWrite pushes updates when the detector sees a producer-consumer
// pattern and there are sharers to push to; otherwise it invalidates.
func (hybrid) SharedWrite(v WriteView) WriteDecision {
	if v.IsPC && !v.Targets.Empty() {
		return PushUpdates
	}
	return Invalidate
}

func (hybrid) UpdateStreakLimit() int { return hybridStreakLimit }
