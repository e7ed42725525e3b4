package fault

import (
	"math/rand"

	"pccsim/internal/mcheck"
	"pccsim/internal/protocol"
)

// GenOpts tunes case generation. The zero value is the nightly-campaign
// default; tests use the knobs to aim generation at specific machinery.
type GenOpts struct {
	// ForceDelegation restricts generation to delegation-capable machines
	// (most with updates), so every case can exercise the producer-table
	// races. Used by bug-injection tests targeting undelegation.
	ForceDelegation bool
	// Protocol pins every generated machine to one protocol,
	// restricting flavors to the protocol's mechanism ("mesi" never draws
	// a delegation machine). Empty = mixed, mostly adaptive. The name
	// must be valid; pccfuzz validates it before the campaign starts.
	Protocol string
	// ExtraRules are appended to every generated fault schedule — the bug
	// injection hook (e.g. a Drop rule planting a lost-NACK bug).
	ExtraRules []Rule
	// MaxOps caps the op count (0 = default range, roughly 30-200).
	MaxOps int
}

// GenCase derives one complete fuzz case from seed. The same (seed, opts)
// always yields the same case; campaigns enumerate seeds base, base+1, ….
//
// The op stream is built from three interleaved styles: producer-consumer
// rounds (bursty writes by one node polled by a consumer set — the pattern
// that trips the PC detector and drives delegation), uniform random noise
// (evictions, conflict misses, write races), and the mcheck litmus shapes
// (so the interleavings the model checker proves safe on tiny configs are
// stressed on the full simulator too).
func GenCase(seed int64, opts GenOpts) Case {
	rng := rand.New(rand.NewSource(seed))
	c := Case{Seed: seed}

	c.Machine = genMachine(rng, opts)
	c.Ops = genOps(rng, c.Machine, opts)
	c.Faults = genFaults(rng, c.Machine, opts)
	return c
}

func genMachine(rng *rand.Rand, opts GenOpts) Machine {
	m := Machine{
		Nodes:    3 + rng.Intn(6),              // 3..8
		Lines:    2 + rng.Intn(9),              // 2..10
		L2Lines:  []int{4, 8, 16}[rng.Intn(3)], // tiny: conflict evictions
		RACLines: []int{0, 2, 4, 8}[rng.Intn(4)],
	}
	flavor := rng.Intn(10)
	if opts.ForceDelegation {
		flavor = 4 + rng.Intn(6)
	}
	if opts.Protocol != "" {
		// Pinning to a protocol restricts flavors to its mechanism:
		// the DSI flavor for self-invalidation, plain machines for the
		// other protocols that do not delegate, anything for
		// delegation.
		p, err := protocol.Lookup(opts.Protocol)
		if err != nil {
			panic("fault: GenOpts.Protocol not validated: " + err.Error())
		}
		switch p.Mechanism() {
		case protocol.Delegation:
		case protocol.SelfInvalidation:
			flavor = 2
		default:
			flavor = rng.Intn(2)
		}
	}
	switch {
	case flavor <= 1: // plain directory protocol
		// Exercise the write-invalidate competitors too: the base
		// machine behaves identically under adaptive/mesi on the fast
		// path, and "hybrid" brings its update-push rounds into the
		// fuzzed surface.
		m.Protocol = []string{"", "mesi", "hybrid", "hybrid"}[rng.Intn(4)]
	case flavor == 2: // dynamic self-invalidation baseline
		// The draw once picked how to spell the baseline; it stays so
		// every seed keeps generating the same ops and faults.
		rng.Intn(2)
		m.Protocol = "dsi"
	default: // delegation, mostly with speculative updates (adaptive only)
		if m.RACLines == 0 {
			m.RACLines = []int{2, 4, 8}[rng.Intn(3)]
		}
		m.DelegateEntries = 1 + rng.Intn(4)
		m.Updates = flavor >= 6
		m.Adaptive = m.Updates && rng.Intn(2) == 0
	}
	// A pinned protocol always wins; pinned to adaptive, the dsi flavor
	// is a plain machine.
	if opts.Protocol != "" {
		m.Protocol = opts.Protocol
	}
	if rng.Intn(100) < 15 {
		m.DetectorWriters = 2
	}
	if rng.Intn(100) < 10 {
		m.NoIntervention = true
	} else if rng.Intn(2) == 0 {
		m.InterventionDelay = []uint64{5, 20, 50, 150, 400}[rng.Intn(5)]
	}
	// A third of the cases run on the sharded engine, half of those on
	// the parallel scheduler, so the races a schedule opens are also
	// stressed across conservative window boundaries (and with the
	// watchdog, quiesce, value-verification and invariant machinery all
	// armed against the sharded code paths).
	if rng.Intn(100) < 30 {
		maxShards := m.Nodes
		if maxShards > 4 {
			maxShards = 4
		}
		m.Shards = 2 + rng.Intn(maxShards-1)
		m.Parallel = rng.Intn(2) == 0
	}
	return m
}

// genOps emits the timed op stream by appending segments until the target
// count is reached. Time advances with small per-op gaps inside a segment
// (dense overlap → in-flight races) and occasional long jumps between
// segments (quiescent phases → eviction and undelegation churn).
func genOps(rng *rand.Rand, m Machine, opts GenOpts) []Op {
	target := 30 + rng.Intn(170)
	if opts.MaxOps > 0 && target > opts.MaxOps {
		target = opts.MaxOps
	}
	var ops []Op
	var t uint64
	emit := func(node, line int, write bool) {
		ops = append(ops, Op{At: t, Node: node, Line: line, Write: write})
		t += uint64(rng.Intn(120)) // 0-gap bursts through relaxed pacing
	}

	for len(ops) < target {
		if rng.Intn(4) == 0 {
			t += uint64(rng.Intn(2000)) // quiescent gap between segments
		}
		switch roll := rng.Intn(100); {
		case roll < 50:
			pcRounds(rng, m, emit)
		case roll < 85:
			noise(rng, m, emit)
		default:
			litmus(rng, m, emit)
		}
	}
	if len(ops) > target {
		ops = ops[:target]
	}
	return ops
}

// pcRounds emits the paper's sharing pattern: one producer bursting writes
// to a small line set, a consumer set polling between bursts. Four-plus
// rounds saturate the PC detector (writeRepeat caps at 3), so on
// delegation-capable machines this is what triggers delegation — the
// producer is steered away from the lines' home nodes to keep the
// remote-producer requirement satisfied.
func pcRounds(rng *rand.Rand, m Machine, emit func(node, line int, write bool)) {
	nLines := 1 + rng.Intn(3)
	if nLines > m.Lines {
		nLines = m.Lines
	}
	base := rng.Intn(m.Lines)
	lines := make([]int, nLines)
	for i := range lines {
		lines[i] = (base + i) % m.Lines
	}
	prod := rng.Intn(m.Nodes)
	if prod == lines[0]%m.Nodes { // avoid the first line's home
		prod = (prod + 1) % m.Nodes
	}
	nCons := 1 + rng.Intn(2)
	cons := make([]int, nCons)
	for i := range cons {
		cons[i] = rng.Intn(m.Nodes)
	}
	rounds := 3 + rng.Intn(4)
	for r := 0; r < rounds; r++ {
		for _, l := range lines {
			emit(prod, l, true)
		}
		for _, cn := range cons {
			for _, l := range lines {
				emit(cn, l, false)
			}
		}
	}
}

// noise emits uniformly random ops (write probability 40%).
func noise(rng *rand.Rand, m Machine, emit func(node, line int, write bool)) {
	n := 5 + rng.Intn(16)
	for i := 0; i < n; i++ {
		emit(rng.Intn(m.Nodes), rng.Intn(m.Lines), rng.Intn(100) < 40)
	}
}

// litmus transplants one mcheck litmus shape onto the full machine: the
// shape's per-node scripts run round-robin on one contended line, mapped
// so script 0 lands on the line's home node (matching the model checker's
// convention that node 0 is home).
func litmus(rng *rand.Rand, m Machine, emit func(node, line int, write bool)) {
	shapes := mcheck.StandardLitmusShapes()
	sh := shapes[rng.Intn(len(shapes))]
	line := rng.Intn(m.Lines)
	home := line % m.Nodes
	node := func(script int) int { return (home + script) % m.Nodes }

	// Round-robin across scripts preserves each script's program order
	// while interleaving them in time.
	idx := make([]int, len(sh.Scripts))
	for {
		progress := false
		for s, script := range sh.Scripts {
			if idx[s] < len(script) {
				emit(node(s), line, script[idx[s]].Write)
				idx[s]++
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// raceTypes are the message types whose delay opens a known race window:
// requests crossing undelegation, delayed interventions crossing producer
// rewrites, update pushes crossing writes, and the delegation handshake
// itself.
var raceTypes = []string{
	"GetShared", "GetExcl", "Upgrade",
	"Intervention", "Invalidate", "SharedWriteback",
	"Delegate", "Undelegate", "UndelegateAck", "NewHomeHint",
	"Update", "UpdateAck", "UpdateData", "UpdateGrant",
}

var requestTypes = []string{"GetShared", "GetExcl", "Upgrade"}

func genFaults(rng *rand.Rand, m Machine, opts GenOpts) Config {
	f := Config{
		Seed:       rng.Int63(),
		JitterProb: []float64{0, 0.1, 0.3, 0.6}[rng.Intn(4)],
		JitterMax:  []uint64{40, 150, 600}[rng.Intn(3)],
		NackProb:   []float64{0, 0.05, 0.15}[rng.Intn(3)],
		NackBudget: 16 + rng.Intn(48),
	}
	if rng.Intn(2) == 0 { // targeted delay on a race-prone type
		f.Rules = append(f.Rules, Rule{
			Type:  raceTypes[rng.Intn(len(raceTypes))],
			Delay: uint64(100 + rng.Intn(600)),
			Count: 1 + rng.Intn(8),
		})
	}
	if rng.Intn(100) < 30 { // targeted NACK cadence on a request type
		f.Rules = append(f.Rules, Rule{
			Type:      requestTypes[rng.Intn(len(requestTypes))],
			NackEvery: 2 + rng.Intn(4),
			Count:     1 + rng.Intn(6),
		})
	}
	if m.DelegateEntries > 1 && rng.Intn(100) < 30 {
		f.DelegateCap = 1 + rng.Intn(m.DelegateEntries-1) // capacity pressure
	}
	f.Rules = append(f.Rules, opts.ExtraRules...)
	return f
}
