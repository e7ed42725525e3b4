package protocol

func init() { Register(adaptive{}) }

// adaptive is the paper's protocol: a write-invalidate directory base
// whose producer-consumer detector steers directory delegation (§2.3),
// and speculative updates via delayed interventions (§2.4), both sized
// and enabled by configuration. It is
// the default protocol, and the reference implementation the fig9/fig10
// goldens pin: its SharedWrite reproduces the pre-plugin simulator's
// decision rule exactly.
type adaptive struct{}

func (adaptive) Name() string { return "adaptive" }

func (adaptive) Description() string {
	return "paper's adaptive producer-consumer protocol (delegation, speculative updates)"
}

func (adaptive) Mechanism() Mechanism { return Delegation }

// SharedWrite delegates the directory entry to a remote writer of a
// detected producer-consumer line when delegation is on (§2.3.1's
// decision rule, verbatim from the pre-plugin home FSM); every other
// shared write invalidates.
func (adaptive) SharedWrite(v WriteView) WriteDecision {
	if v.DelegationOn && v.IsPC && v.Requester != v.Home {
		return Delegate
	}
	return Invalidate
}

func (adaptive) UpdateStreakLimit() int { return 0 }
