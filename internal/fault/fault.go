// Package fault is the simulator's chaos layer: a deterministic,
// seed-driven adversary for the interconnect, and the fuzzing harness that
// drives it. The paper validates the delegation and speculative-update
// machinery with exhaustive Murphi model checking on tiny configurations
// (§2.5); internal/mcheck reproduces that. This package attacks the same
// race windows — undelegation vs. in-flight requests, delayed
// interventions crossing writes, NACK-and-retry resolution — on the *full*
// simulator at arbitrary scale, by perturbing message timing and injecting
// spurious NACKs while every runtime invariant check is armed.
//
// All perturbations except Drop rules are semantics-preserving on this
// protocol: messages may take arbitrarily long (jitter), and any request
// may be NACKed at any time (the requester retries). A correct protocol
// must therefore pass every fault schedule; a failure is always a protocol
// bug, never a fault-model artifact. Drop rules break that contract on
// purpose — they simulate protocol bugs (a lost NACK, a swallowed ack) so
// tests can prove the fuzzer's detectors and shrinker actually work.
package fault

import (
	"fmt"
	"math/rand"

	"pccsim/internal/msg"
	"pccsim/internal/network"
	"pccsim/internal/sim"
)

// Rule is a targeted, deterministic perturbation for one message type.
// Rules are how race-window tests aim the chaos layer at a specific
// transition: "delay every GetShared by 400 cycles" opens the
// read-crosses-undelegation window on demand, with no randomness involved.
type Rule struct {
	// Type names the message type the rule matches (msg.Type.String()).
	Type string `json:"type"`
	// Delay adds this many cycles of flight time to every match.
	Delay uint64 `json:"delay,omitempty"`
	// NackEvery bounces every Nth matching request back to its requester
	// as a NACK (1 = every match). Ignored for non-request types.
	NackEvery int `json:"nack_every,omitempty"`
	// DropEvery silently discards every Nth match. This is BUG INJECTION:
	// dropping packets is not a legal fault on the modeled fabric. Only
	// tests that verify the fuzzer catches planted bugs set it.
	DropEvery int `json:"drop_every,omitempty"`
	// Count caps how many times the rule fires (0 = unlimited).
	Count int `json:"count,omitempty"`
}

// Config is one complete fault schedule: a seed plus the probabilistic and
// targeted perturbation knobs. The zero value injects nothing. Config is
// JSON-serializable so shrunk reproductions replay bit-for-bit.
type Config struct {
	// Seed drives every probabilistic decision. Two runs of the same
	// workload under the same Config are identical.
	Seed int64 `json:"seed"`

	// JitterProb is the per-message probability of extra flight delay;
	// JitterMax bounds the delay in cycles. Jitter delays one message
	// without holding back later ones, so JitterMax is also the bounded
	// reordering window: a message can be overtaken by at most
	// JitterMax cycles' worth of younger traffic on its route.
	JitterProb float64 `json:"jitter_prob,omitempty"`
	JitterMax  uint64  `json:"jitter_max,omitempty"`

	// NackProb spuriously bounces incoming requests (GetShared, GetExcl,
	// Upgrade) with this probability, up to NackBudget times — the
	// race-prone transitions all begin with a request arriving somewhere
	// stale. The budget keeps runs finite under aggressive settings
	// (every bounce costs the requester a full retry round trip).
	NackProb   float64 `json:"nack_prob,omitempty"`
	NackBudget int     `json:"nack_budget,omitempty"`

	// Rules are the targeted perturbations, applied before the
	// probabilistic ones; the first matching rule wins.
	Rules []Rule `json:"rules,omitempty"`

	// DelegateCap, when positive, clamps the delegate-cache capacity of
	// the system under test (applied by the fuzz harness via Clamp) —
	// the capacity-pressure knob that forces constant undelegation
	// churn, the paper's Figure 11 regime.
	DelegateCap int `json:"delegate_cap,omitempty"`
}

// Enabled reports whether the schedule perturbs anything at all.
func (c Config) Enabled() bool {
	return c.JitterProb > 0 || c.NackProb > 0 || len(c.Rules) > 0
}

// nackBudget resolves the spurious-NACK cap.
func (c Config) nackBudget() int {
	if c.NackBudget > 0 {
		return c.NackBudget
	}
	return 64
}

// ruleState is one compiled rule with its firing counters.
type ruleState struct {
	rule    Rule
	matches int // matches seen (drives the Every cadence)
	fired   int // perturbations applied (capped by Count)
}

// Injector implements network.Chaos for one fault schedule. It must only
// be used from the simulation goroutine that owns the engine; determinism
// follows from the engine's deterministic event order.
type Injector struct {
	cfg       Config
	rng       *rand.Rand
	nacksLeft int
	rules     [msg.NumTypes][]*ruleState

	// Counters for reporting which perturbations a run actually applied.
	Jittered uint64 // messages given probabilistic jitter
	Bounced  uint64 // requests bounced as spurious NACKs
	Dropped  uint64 // messages discarded by Drop rules (bug injection)
	RuleHits uint64 // targeted rule applications (delay, nack and drop)
}

// NewInjector compiles cfg. It fails on unknown message-type names so a
// corrupted corpus file cannot silently run with no faults.
func NewInjector(cfg Config) (*Injector, error) {
	inj := &Injector{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		nacksLeft: cfg.nackBudget(),
	}
	for _, r := range cfg.Rules {
		t, ok := msg.ParseType(r.Type)
		if !ok {
			return nil, fmt.Errorf("fault: rule names unknown message type %q", r.Type)
		}
		if r.NackEvery > 0 && !t.IsRequest() {
			return nil, fmt.Errorf("fault: rule NACKs %s, but only requests can be NACKed", r.Type)
		}
		inj.rules[t] = append(inj.rules[t], &ruleState{rule: r})
	}
	return inj, nil
}

// due advances the rule's cadence counter and reports whether an
// every-N action is due and under its cap.
func (rs *ruleState) due(every int) bool {
	if every <= 0 {
		return false
	}
	if rs.rule.Count > 0 && rs.fired >= rs.rule.Count {
		return false
	}
	return rs.matches%every == 0
}

// Jitter implements network.Chaos: extra flight cycles for m.
func (i *Injector) Jitter(now sim.Time, m *msg.Message) sim.Time {
	var extra sim.Time
	for _, rs := range i.rules[m.Type] {
		if rs.rule.Delay > 0 && (rs.rule.Count == 0 || rs.fired < rs.rule.Count) {
			extra += sim.Time(rs.rule.Delay)
			rs.fired++
			i.RuleHits++
		}
	}
	if i.cfg.JitterProb > 0 && i.cfg.JitterMax > 0 && i.rng.Float64() < i.cfg.JitterProb {
		extra += sim.Time(i.rng.Int63n(int64(i.cfg.JitterMax) + 1))
		i.Jittered++
	}
	return extra
}

// Verdict implements network.Chaos: decides the fate of m at delivery.
func (i *Injector) Verdict(now sim.Time, m *msg.Message) network.Verdict {
	for _, rs := range i.rules[m.Type] {
		rs.matches++
		if rs.due(rs.rule.DropEvery) {
			rs.fired++
			i.RuleHits++
			i.Dropped++
			return network.Drop
		}
		if rs.due(rs.rule.NackEvery) {
			rs.fired++
			i.RuleHits++
			i.Bounced++
			return network.Bounce
		}
	}
	if i.cfg.NackProb > 0 && m.Type.IsRequest() && i.nacksLeft > 0 &&
		i.rng.Float64() < i.cfg.NackProb {
		i.nacksLeft--
		i.Bounced++
		return network.Bounce
	}
	return network.Deliver
}

// Perturbations summarizes what the injector actually did, for logs and
// interestingness scoring.
func (i *Injector) Perturbations() uint64 {
	return i.Jittered + i.Bounced + i.Dropped + i.RuleHits
}
