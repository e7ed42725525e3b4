package fault

import (
	"fmt"
	"sync/atomic"
	"time"

	"pccsim/internal/core"
	"pccsim/internal/msg"
	"pccsim/internal/obs"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
)

// Machine is the reduced configuration space the fuzzer explores: tiny
// caches and tables so every structural pressure point (L2 conflict
// evictions, RAC pin saturation, delegate-cache churn) is reachable within
// a few hundred operations. It maps onto core.Config via BuildConfig.
type Machine struct {
	Nodes int `json:"nodes"`
	// Lines is the address-pool size. Line i lives on its own page,
	// pre-placed at node i%Nodes, so shrinking an op list never moves
	// the homes of the survivors.
	Lines int `json:"lines"`

	L2Lines  int `json:"l2_lines"`  // L2 capacity in 128 B lines (2-way)
	RACLines int `json:"rac_lines"` // RAC capacity in lines; 0 disables

	// Protocol names the coherence protocol the case runs under, and so
	// its mechanism ("dsi" self-invalidates); empty means the default
	// ("adaptive", the paper's protocol), which is what every corpus
	// repro written before protocols were selectable replays as. Part of
	// the repro identity: a failure under one protocol must replay under
	// the same one.
	Protocol string `json:"protocol,omitempty"`

	// DelegateEntries, Updates and Adaptive size the delegation
	// mechanism; core.Config.Validate rejects them under any other.
	DelegateEntries int  `json:"delegate_entries,omitempty"`
	Updates         bool `json:"updates,omitempty"`
	Adaptive        bool `json:"adaptive,omitempty"`
	DetectorWriters int  `json:"detector_writers,omitempty"`

	// Shards records the engine partitioning the case runs under (0 =
	// the legacy single engine) and Parallel the scheduler (false = the
	// deterministic serial round-robin). Both are part of the repro: a
	// failure found on a sharded machine must replay on one. Shards is
	// never omitted from JSON so every committed repro states its mode.
	Shards   int  `json:"shards"`
	Parallel bool `json:"parallel,omitempty"`

	// InterventionDelay in cycles (0 = the protocol default of 50);
	// NoIntervention disables the delayed intervention entirely.
	InterventionDelay uint64 `json:"intervention_delay,omitempty"`
	NoIntervention    bool   `json:"no_intervention,omitempty"`
}

// Op is one injected memory operation: node performs a load or store on
// address-pool line Line at engine cycle At. Ops are the unit the shrinker
// removes, so a minimal reproduction reads as a short program.
type Op struct {
	At    uint64 `json:"at"`
	Node  int    `json:"node"`
	Line  int    `json:"line"`
	Write bool   `json:"write,omitempty"`
}

// Case is one self-contained fuzz input: a machine, a fault schedule and a
// timed op list. Cases serialize to JSON for the replay corpus; running
// the same case always produces the same Result.
type Case struct {
	// Seed records the generator seed the case came from (provenance
	// only; replay never re-derives anything from it).
	Seed int64  `json:"seed"`
	Note string `json:"note,omitempty"`

	Machine Machine `json:"machine"`
	Faults  Config  `json:"faults"`
	Ops     []Op    `json:"ops"`

	// Trace is the last-N-protocol-events window of the failing run,
	// captured by TraceTail when a campaign writes a shrunk
	// reproduction. Purely diagnostic: replay ignores it.
	Trace []string `json:"trace,omitempty"`
}

// Result is the deterministic verdict of running a case.
type Result struct {
	Ok      bool   `json:"ok"`
	Failure string `json:"failure,omitempty"`

	Events    uint64 `json:"events"` // engine events executed
	Cycles    uint64 `json:"cycles"` // final simulation time
	Completed int    `json:"completed"`
	Ops       int    `json:"ops"`

	// Interestingness counters: how hard the case exercised the race
	// machinery. Used to select corpus-worthy cases and to assert that
	// targeted schedules actually opened their windows.
	Nacks         uint64        `json:"nacks,omitempty"`
	Retries       uint64        `json:"retries,omitempty"`
	Delegations   uint64        `json:"delegations,omitempty"`
	Undelegations uint64        `json:"undelegations,omitempty"`
	Interventions uint64        `json:"interventions,omitempty"`
	UpdatesSent   uint64        `json:"updates_sent,omitempty"`
	Perturbations uint64        `json:"perturbations,omitempty"`
	Wall          time.Duration `json:"-"`
}

// TraceTailEvents is the default window size campaigns attach to shrunk
// reproductions: long enough to show a full NACK/retry or delegation
// cycle, short enough that repro files stay reviewable.
const TraceTailEvents = 64

// poolBase anchors the fuzz address pool; each line gets its own page so
// line index i maps to a stable home node i%Nodes.
const (
	poolBase  = msg.Addr(0x1000_0000)
	poolPage  = 4096
	lineBytes = 128
)

// maxTableLines bounds the machine's L2, RAC and delegate-table sizes: the
// fuzzer's machines are tiny by design, and the bound keeps a hand-edited
// corpus file from asking for a host-memory-sized table.
const maxTableLines = 1 << 16

// LineAddr returns the address of pool line i.
func LineAddr(i int) msg.Addr { return poolBase + msg.Addr(i)*poolPage }

// Validate checks that the case is well formed and that its machine is a
// legal core configuration: core.Config.Validate judges the mechanism
// and protocol settings, so the fuzzer accepts exactly what the
// simulator does. Speculative updates without delegation, which
// BuildConfig would silently drop, are rejected here first, so such a
// repro never claims a mechanism it did not run.
func (c *Case) Validate() error {
	m := &c.Machine
	if m.Nodes < 2 || m.Nodes > msg.MaxNodes {
		return fmt.Errorf("fault: machine nodes = %d, want 2..%d", m.Nodes, msg.MaxNodes)
	}
	if m.Lines < 1 {
		return fmt.Errorf("fault: machine needs at least one pool line")
	}
	if m.L2Lines < 2 {
		return fmt.Errorf("fault: L2 needs at least two lines")
	}
	if m.L2Lines > maxTableLines || m.RACLines > maxTableLines || m.DelegateEntries > maxTableLines {
		return fmt.Errorf("fault: l2_lines, rac_lines and delegate_entries must be at most %d", maxTableLines)
	}
	if m.Updates && m.DelegateEntries == 0 {
		return fmt.Errorf("fault: speculative updates require delegation")
	}
	cfg := c.BuildConfig()
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("fault: %w", err)
	}
	for i, op := range c.Ops {
		if op.Node < 0 || op.Node >= m.Nodes {
			return fmt.Errorf("fault: op %d targets node %d of %d", i, op.Node, m.Nodes)
		}
		if op.Line < 0 || op.Line >= m.Lines {
			return fmt.Errorf("fault: op %d targets line %d of %d", i, op.Line, m.Lines)
		}
	}
	return nil
}

// watchdogSteps bounds one case's engine events: generous against the
// heaviest legitimate case (a few hundred events per op), tight enough
// that a livelock aborts in well under a second.
func (c *Case) watchdogSteps() uint64 {
	return 300_000 + 10_000*uint64(len(c.Ops))
}

// BuildConfig maps the machine (with the fault schedule's pressure knobs
// applied) onto a core configuration with every runtime check armed.
func (c *Case) BuildConfig() core.Config {
	m := &c.Machine
	cfg := core.DefaultConfig()
	cfg.Nodes = m.Nodes
	cfg.Protocol = m.Protocol
	cfg.L1Bytes, cfg.L1Ways, cfg.L1LineBytes = 128, 2, 32
	cfg.L2Bytes, cfg.L2Ways = m.L2Lines*lineBytes, 2
	cfg.RACBytes, cfg.RACWays = m.RACLines*lineBytes, 2
	cfg.DelegateEntries = m.DelegateEntries
	if c.Faults.DelegateCap > 0 && cfg.DelegateEntries > c.Faults.DelegateCap {
		cfg.DelegateEntries = c.Faults.DelegateCap
	}
	cfg.EnableUpdates = m.Updates && cfg.DelegateEntries > 0
	cfg.AdaptiveDelay = m.Adaptive
	cfg.DetectorWriters = m.DetectorWriters
	if m.NoIntervention {
		cfg.InterventionDelay = core.NoIntervention
	} else if m.InterventionDelay > 0 {
		cfg.InterventionDelay = sim.Time(m.InterventionDelay)
	}
	cfg.Shards = m.Shards
	cfg.ShardsParallel = m.Parallel && m.Shards > 1
	cfg.CheckInvariants = true
	cfg.WatchdogSteps = c.watchdogSteps()
	return cfg
}

// Run executes the case on a private engine and returns its verdict.
// Every check the simulator has is armed: the per-transaction invariant
// checks and the version oracle during the run, then quiescence, global
// coherence and end-state value verification once the queue drains.
// Protocol panics (the invariant checkers' failure mode) are converted
// into failing Results, so a campaign survives any verdict.
func (c *Case) Run() (res Result) { return c.run(nil) }

// TraceTail replays the case with an observer attached and returns the
// last n protocol events, rendered one per line. Replay is deterministic,
// so the tail shows exactly what the failing run was doing when it died;
// campaigns attach it to shrunk reproductions.
func (c *Case) TraceTail(n int) []string {
	if n <= 0 {
		n = 64
	}
	sink := obs.NewSink(n)
	c.run(func(sys *core.System) { sys.AttachObs(sink) })
	evs := sink.Events()
	out := make([]string, len(evs))
	for i := range evs {
		out[i] = formatEvent(&evs[i])
	}
	return out
}

// formatEvent renders one observability event for a repro's trace tail.
func formatEvent(e *obs.Event) string {
	at := uint64(e.At)
	switch e.Kind {
	case obs.KindSend:
		return fmt.Sprintf("[%8d] send %s %d->%d line %#x (%dB, %d hops)",
			at, e.Msg.Type, e.Msg.Src, e.Msg.Dst, uint64(e.Addr), e.Bytes, e.Hops)
	case obs.KindUndelegate:
		return fmt.Sprintf("[%8d] %s n%d line %#x cause=%s",
			at, e.Kind, e.Node, uint64(e.Addr), stats.UndelegateReason(e.Arg))
	default:
		return fmt.Sprintf("[%8d] %s n%d line %#x", at, e.Kind, e.Node, uint64(e.Addr))
	}
}

// run executes the case; prep, if non-nil, sees the system before any
// event runs.
func (c *Case) run(prep func(*core.System)) (res Result) {
	res.Ops = len(c.Ops)
	if err := c.Validate(); err != nil {
		res.Failure = "invalid: " + err.Error()
		return res
	}

	sys, err := core.NewSystem(c.BuildConfig())
	if err != nil {
		res.Failure = "config: " + err.Error()
		return res
	}
	if prep != nil {
		prep(sys)
	}
	// On a sharded system every shard gets a private injector (shard 0
	// keeps the case seed, the rest derive theirs), because an injector's
	// RNG and rule budgets are consulted from the owning shard's
	// goroutine. Per-shard streams stay deterministic under both
	// schedulers; total perturbations legitimately differ from an
	// unsharded replay of the same case.
	var injs []*Injector
	if c.Faults.Enabled() {
		shards := 1
		if sys.Sharded() {
			shards = sys.Group().Shards()
		}
		injs = make([]*Injector, shards)
		for s := range injs {
			fc := c.Faults
			if s > 0 {
				fc.Seed ^= int64(uint64(s) * 0x9E3779B97F4A7C15)
			}
			injs[s], err = NewInjector(fc)
			if err != nil {
				res.Failure = "faults: " + err.Error()
				return res
			}
			sys.Net.SetChaos(s, injs[s])
		}
	}
	// Stripe the pool homes so they are independent of op order.
	for i := 0; i < c.Machine.Lines; i++ {
		sys.Mem.Place(LineAddr(i), msg.NodeID(i%c.Machine.Nodes))
	}

	start := time.Now()
	defer func() {
		res.Events = sys.Steps()
		res.Cycles = uint64(sys.Now())
		res.Wall = time.Since(start)
		for _, inj := range injs {
			res.Perturbations += inj.Perturbations()
		}
		agg := sys.Aggregate()
		res.Nacks = agg.Nacks()
		res.Retries = agg.Retries
		res.Delegations = agg.Delegations
		res.Undelegations = agg.TotalUndelegations()
		res.Interventions = agg.Interventions
		res.UpdatesSent = agg.UpdatesSent
		if r := recover(); r != nil {
			res.Ok = false
			res.Failure = fmt.Sprintf("invariant panic: %v", r)
		}
	}()

	// Ops land on the engine owning their node, through that node's
	// driver.
	var completed atomic.Int64
	drivers := make([]*driver, c.Machine.Nodes)
	for i := range drivers {
		drivers[i] = &driver{sys: sys, eng: sys.EngFor(msg.NodeID(i)), ops: c.Ops, completed: &completed}
	}
	for i, op := range c.Ops {
		d := drivers[op.Node]
		d.eng.ScheduleArg(sim.Time(op.At), d, opIssue, uint32(i))
	}

	if _, err := sys.RunGuarded(); err != nil {
		res.Completed = int(completed.Load())
		res.Failure = fmt.Sprintf("watchdog (fault seed %d): %v", c.Faults.Seed, err)
		return res
	}
	res.Completed = int(completed.Load())
	if res.Completed != len(c.Ops) {
		res.Failure = fmt.Sprintf("deadlock (fault seed %d): %d/%d ops incomplete; outstanding per node: %s",
			c.Faults.Seed, len(c.Ops)-res.Completed, len(c.Ops), outstanding(sys))
		return res
	}
	if err := sys.QuiesceCheck(); err != nil {
		res.Failure = "quiesce: " + err.Error()
		return res
	}
	sys.CheckAll() // panics on violation; recovered above
	if err := sys.VerifyValues(); err != nil {
		res.Failure = "lost update: " + err.Error()
		return res
	}
	res.Ok = true
	return res
}

// driver issues one node's ops and counts their completions: opIssue
// (with the op's index as the event argument) issues one, opDone counts
// one. Completions from different shard goroutines count atomically.
type driver struct {
	sys       *core.System
	eng       *sim.Engine // the node's engine, which runs its events
	ops       []Op
	completed *atomic.Int64
}

const (
	opIssue uint8 = iota
	opDone
)

func (d *driver) HandleMsgEvent(op uint8, _ *msg.Message) {
	if op == opDone {
		d.completed.Add(1)
		return
	}
	o := d.ops[d.eng.Arg()]
	d.sys.Access(msg.NodeID(o.Node), LineAddr(o.Line), o.Write, d, opDone)
}

// outstanding formats the per-node outstanding-transaction census for
// deadlock reports.
func outstanding(sys *core.System) string {
	s := ""
	for i, h := range sys.Hubs {
		if n := h.Outstanding(); n > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("n%d=%d", i, n)
		}
	}
	if s == "" {
		return "none"
	}
	return s
}
