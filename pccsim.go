// Package pccsim is a simulator of the adaptive cache coherence protocol of
// Cheng, Carter and Dai, "An Adaptive Cache Coherence Protocol Optimized
// for Producer-Consumer Sharing" (HPCA 2007).
//
// It models a 16-node SGI-style cc-NUMA multiprocessor — fat-tree
// interconnect, per-node L1/L2 caches, directory-based write-invalidate
// coherence with NACK/retry — extended with the paper's three mechanisms:
// a producer-consumer sharing detector in the directory cache, directory
// delegation to the producer node, and speculative updates driven by
// delayed interventions that land in remote access caches.
//
// # Configuring a machine
//
// DefaultConfig is the paper's Table 1 baseline. The mechanisms are
// enabled with functional options, either at machine construction or by
// deriving a Config:
//
//	m, err := pccsim.New(pccsim.DefaultConfig(),
//	    pccsim.WithRAC(32),               // 32 KB remote access cache
//	    pccsim.WithDelegation(32),        // 32-entry delegate cache
//	    pccsim.WithSpeculativeUpdates(0)) // updates, default 50-cycle delay
//
//	st, err := pccsim.RunWorkload(
//	    pccsim.DefaultConfig().With(pccsim.WithRAC(32), pccsim.WithDelegation(32)),
//	    "em3d", pccsim.WorkloadParams{})
//
// # Programs
//
// Custom programs are built from per-node operation streams:
//
//	prog := pccsim.NewProgram(cfg.Nodes)
//	prog.Store(0, 0x1000)  // node 0 produces
//	prog.Barrier()
//	prog.Load(1, 0x1000)   // node 1 consumes
//	m, _ := pccsim.New(cfg)
//	st, _ := m.Run(prog)
//
// # Observability
//
// Machine.Observe attaches a structured event stream before a run: every
// message injected into the fabric (with hop count and wire size), every
// miss with its MSHR occupancy and outcome class, and the full delegation
// lifecycle (detect → delegate → install → undelegate with the paper's
// §2.3.3 cause). The stream aggregates Metrics live — so totals are exact
// even after the event ring wraps — and exports Chrome/Perfetto trace
// JSON. With no observer attached the simulator pays one nil pointer
// check per potential event and allocates nothing; results are identical
// either way.
//
//	es := m.Observe(1 << 16)
//	st, _ := m.Run(prog)
//	es.WritePerfetto(file)           // open in ui.perfetto.dev
//	fmt.Println(es.Metrics().AvgHops())
//
// Machine.Trace remains the plain-text timeline view; it rides the same
// stream, and both may be attached at once.
//
// # Errors
//
// Failures are classified by sentinel: ErrUnknownWorkload (bad benchmark
// name), ErrUnknownProtocol (bad coherence-protocol name), ErrBadConfig
// (Config.Validate rejection), ErrRunaway (watchdog abort on a livelocked
// run; errors.As recovers the *RunawayError diagnostics). All are matched
// with errors.Is through any wrapping.
//
// # Protocols
//
// The directory's sharing policy is selectable. Protocols lists the
// coherence protocols and WithProtocol selects one; a
// protocol's name selects its one mechanism. The default, "adaptive",
// is the paper's protocol: delegation, sized by WithRAC and
// WithDelegation, with WithSpeculativeUpdates and WithAdaptiveDelay on
// top. "mesi" is the plain write-invalidate baseline, "hybrid" pushes
// updates to stable sharer sets (Dovgopol & Rosonke), and "dsi" is the
// dynamic self-invalidation related work, selected with
// WithProtocol("dsi"). Config.Validate rejects the delegation options
// under every protocol but "adaptive" (e.g. WithDelegation under
// "mesi").
package pccsim

import (
	"fmt"
	"io"

	"pccsim/internal/core"
	"pccsim/internal/cpu"
	"pccsim/internal/msg"
	"pccsim/internal/node"
	"pccsim/internal/obs"
	"pccsim/internal/protocol"
	"pccsim/internal/runner"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
	"pccsim/internal/workload"
)

// Config describes the simulated machine; see DefaultConfig for the
// paper's Table 1 parameters.
type Config = core.Config

// Stats holds the counters of one run; see its methods for the derived
// metrics the paper reports (remote misses, traffic, update accuracy).
type Stats = stats.Stats

// WorkloadParams sizes a benchmark build.
type WorkloadParams = workload.Params

// Addr is a physical byte address.
type Addr = msg.Addr

// NodeID identifies one processor/hub node.
type NodeID = msg.NodeID

// Time is a duration in 2 GHz processor cycles.
type Time = sim.Time

// NoIntervention disables the delayed intervention (the "infinite delay"
// point of the paper's Figure 9).
const NoIntervention = core.NoIntervention

// Option mutates a Config; pass options to New or Config.With. Each
// option enables one of the paper's mechanisms.
type Option = core.Option

// WithRAC enables the remote access cache, sized in kilobytes (Figure 7
// uses 32).
func WithRAC(kiloBytes int) Option { return core.WithRAC(kiloBytes) }

// WithDelegation enables directory delegation with the given producer
// table size; requires WithRAC.
func WithDelegation(entries int) Option { return core.WithDelegation(entries) }

// WithSpeculativeUpdates enables speculative updates via delayed
// interventions. delay is the intervention interval in cycles (0 = keep
// the configured default of 50; NoIntervention = never fire). Requires
// delegation and a RAC.
func WithSpeculativeUpdates(delay Time) Option { return core.WithSpeculativeUpdates(delay) }

// WithAdaptiveDelay enables the §5 per-line learned intervention delay.
func WithAdaptiveDelay() Option { return core.WithAdaptiveDelay() }

// WithProtocol selects the coherence protocol by name; see Protocols for
// the registered set. The empty name keeps the default ("adaptive", the
// paper's protocol). New fails with ErrUnknownProtocol for names not in
// Protocols, and with ErrBadConfig when delegation, updates or the
// adaptive delay are enabled under a protocol that does not delegate.
func WithProtocol(name string) Option { return core.WithProtocol(name) }

// WithShards partitions the simulated machine into n engine shards run
// on worker goroutines, synchronized by conservative time windows (the
// fast scheduler). n <= 1 keeps the classic single engine; n must not
// exceed the node count. Sharded runs produce slightly different timings
// than unsharded ones, but the parallel and serial shard schedulers are
// guaranteed to agree with each other. While one shard holds all the
// work of the coming windows it runs them without a barrier in between,
// unless speculative updates are on; that saves barriers and changes no
// result.
func WithShards(n int) Option { return core.WithShards(n) }

// WithDeterministicShards partitions like WithShards but keeps the
// serial round-robin scheduler: same shard topology, same results, one
// goroutine. This is the reference the fast mode is validated against
// and the mode to use when reproducing a parallel-run failure.
func WithDeterministicShards(n int) Option { return core.WithDeterministicShards(n) }

// Typed error classes; see the package comment's Errors section.
var (
	// ErrUnknownWorkload reports a benchmark name not in Workloads.
	ErrUnknownWorkload = workload.ErrUnknown
	// ErrUnknownProtocol reports a protocol name not in Protocols.
	ErrUnknownProtocol = protocol.ErrUnknown
	// ErrBadConfig reports a Config that fails validation.
	ErrBadConfig = core.ErrBadConfig
	// ErrRunaway reports a watchdog abort; errors.As against
	// *pccsim.RunawayError recovers the queue census.
	ErrRunaway = sim.ErrRunaway
)

// RunawayError carries the watchdog diagnostics of a run that exhausted
// its step budget (see Config.WatchdogSteps).
type RunawayError = sim.RunawayError

// DefaultConfig returns the Table 1 baseline system (no RAC, no
// delegation, no updates). Enable the paper's hardware with the With*
// options.
func DefaultConfig() Config { return core.DefaultConfig() }

// Workloads lists the seven benchmark generators in the paper's order.
func Workloads() []string {
	all := workload.All()
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	return names
}

// Protocols lists the registered coherence protocols in sorted order;
// pass a name to WithProtocol.
func Protocols() []string { return protocol.Names() }

// Machine is a ready-to-run simulated multiprocessor. A Machine runs one
// program; build a fresh one per experiment so caches start cold.
type Machine struct {
	inner *node.Machine
}

// New builds a machine from cfg with the options applied. It fails with
// ErrBadConfig if the resulting configuration is inconsistent (e.g.
// delegation without a RAC).
func New(cfg Config, opts ...Option) (*Machine, error) {
	m, err := node.New(cfg.With(opts...))
	if err != nil {
		return nil, err
	}
	return &Machine{inner: m}, nil
}

// Event is one structured protocol event; Kind says what happened and
// which of the fields carry meaning (see the Kind constants).
type Event = obs.Event

// Kind classifies an Event.
type Kind = obs.Kind

// Metrics aggregates every event ever emitted to a stream: traffic by
// message class, hop histogram, miss outcomes, MSHR peak, the delegation
// ledger and per-line timelines.
type Metrics = obs.Metrics

// Event kinds, re-exported for filtering in EventStream taps.
const (
	KindSend             = obs.KindSend
	KindMissStart        = obs.KindMissStart
	KindMissEnd          = obs.KindMissEnd
	KindPCDetect         = obs.KindPCDetect
	KindDelegate         = obs.KindDelegate
	KindDelegateInstall  = obs.KindDelegateInstall
	KindUndelegate       = obs.KindUndelegate
	KindUndelegateCommit = obs.KindUndelegateCommit
	KindIntervention     = obs.KindIntervention
	KindUpdatePush       = obs.KindUpdatePush
	KindUpdateHit        = obs.KindUpdateHit
	KindUpdateWaste      = obs.KindUpdateWaste
)

// EventStream is a live view of one machine's protocol events; see
// Machine.Observe.
type EventStream struct {
	sink *obs.Sink
}

// Events returns the retained event window in emission order.
func (e *EventStream) Events() []Event { return e.sink.Events() }

// Metrics returns the live aggregates; unlike Events they cover the
// whole run even when the ring has wrapped.
func (e *EventStream) Metrics() *Metrics { return &e.sink.M }

// Total reports how many events were emitted, including any that have
// already been overwritten in the ring.
func (e *EventStream) Total() uint64 { return e.sink.Total() }

// OnEvent registers fn to run on every event as it is emitted, after any
// previously registered function. The callback runs inside the simulation
// hot path: keep it allocation-light.
func (e *EventStream) OnEvent(fn func(Event)) { e.sink.OnEvent(fn) }

// WritePerfetto exports the stream as Chrome trace-event JSON, loadable
// in ui.perfetto.dev or chrome://tracing: one track per node (messages,
// misses, MSHR occupancy counters) and one per cache line (the
// delegation lifecycle). Timestamps are simulated cycles written into
// the microsecond field.
func (e *EventStream) WritePerfetto(w io.Writer) error {
	return obs.WritePerfetto(w, e.sink)
}

// Observe attaches a structured event stream retaining the most recent
// capacity events (capacity < 0 retains everything; 0 keeps metrics
// only). Call before Run. Attaching an observer never changes simulation
// results — only records them.
func (m *Machine) Observe(capacity int) *EventStream {
	s := obs.NewSink(capacity)
	m.inner.Sys.AttachObs(s)
	return &EventStream{sink: s}
}

// TraceRecorder captures the machine's coherence-message timeline for
// debugging; see Machine.Trace.
type TraceRecorder struct {
	sink *obs.Sink
}

// Dump writes the retained message timeline.
func (t *TraceRecorder) Dump(w io.Writer) { obs.DumpTimeline(w, t.sink.Events()) }

// DumpStories writes per-line lifecycle summaries (message counts,
// delegation history).
func (t *TraceRecorder) DumpStories(w io.Writer) { obs.DumpStories(w, t.sink.Events()) }

// Total reports how many messages were recorded.
func (t *TraceRecorder) Total() uint64 { return t.sink.Total() }

// Trace attaches a message recorder keeping the most recent capacity
// events (capacity <= 0 keeps 4096). line restricts recording to one
// cache line (0 = all lines). Call before Run. The recorder rides the
// machine's event stream — Observe's, or a metrics-only one it attaches
// — so Trace and Observe compose in either order.
func (m *Machine) Trace(capacity int, line Addr) *TraceRecorder {
	stream := m.inner.Sys.Obs
	if stream == nil {
		stream = obs.NewSink(0)
		m.inner.Sys.AttachObs(stream)
	}
	return &TraceRecorder{sink: stream.Recorder(capacity, line)}
}

// Run executes the program to completion and returns its statistics.
func (m *Machine) Run(p *Program) (*Stats, error) {
	if p.Nodes() != m.inner.Sys.Cfg.Nodes {
		return nil, fmt.Errorf("pccsim: program built for %d nodes, machine has %d",
			p.Nodes(), m.inner.Sys.Cfg.Nodes)
	}
	ops := p.b.Ops()
	streams := make([]cpu.Stream, len(ops))
	for i := range ops {
		streams[i] = &cpu.SliceStream{Ops: ops[i]}
	}
	return m.inner.Run(streams)
}

// SynthParams parameterizes BuildSynthetic; see workload.SynthParams.
type SynthParams = workload.SynthParams

// DefaultSynthParams returns a communication-heavy synthetic shape.
func DefaultSynthParams(nodes int) SynthParams { return workload.DefaultSynthParams(nodes) }

// BuildSynthetic constructs a generic producer-consumer program with
// explicit knobs for working-set size, consumer-set size, remote-home
// fraction and compute intensity — the generalization of the seven fixed
// benchmarks, for exploring the mechanisms on arbitrary sharing shapes.
func BuildSynthetic(p SynthParams) (*Program, error) {
	ops, err := workload.Synthetic(p)
	if err != nil {
		return nil, err
	}
	return &Program{b: workload.BuilderOf(ops)}, nil
}

// BuildWorkload constructs the named benchmark as a Program, for running
// on a Machine you configure yourself (e.g. with an observer attached).
// Unknown names fail with ErrUnknownWorkload.
func BuildWorkload(name string, p WorkloadParams) (*Program, error) {
	w, err := workload.Lookup(name)
	if err != nil {
		return nil, err
	}
	if p.Nodes <= 0 {
		return nil, fmt.Errorf("pccsim: BuildWorkload needs WorkloadParams.Nodes")
	}
	return &Program{b: workload.BuilderOf(w.Build(p))}, nil
}

// RunWorkload builds the named benchmark and runs it on a fresh machine.
// p.Nodes == 0 means cfg.Nodes. Unknown names fail with
// ErrUnknownWorkload.
func RunWorkload(cfg Config, name string, p WorkloadParams) (*Stats, error) {
	w, err := workload.Lookup(name)
	if err != nil {
		return nil, err
	}
	if p.Nodes == 0 {
		p.Nodes = cfg.Nodes
	}
	if p.Nodes != cfg.Nodes {
		return nil, fmt.Errorf("pccsim: workload sized for %d nodes, config has %d", p.Nodes, cfg.Nodes)
	}
	return runner.Job{Cfg: cfg, Workload: w, Params: p}.Simulate()
}

// Program is a per-node sequence of memory operations, compute delays and
// barriers — the unit a Machine executes.
type Program struct {
	b *workload.Builder
}

// NewProgram creates an empty program over the given node count.
func NewProgram(nodes int) *Program {
	return &Program{b: workload.NewBuilder(nodes)}
}

// Nodes returns the program's node count.
func (p *Program) Nodes() int { return p.b.Nodes() }

// Len returns the total operation count across nodes.
func (p *Program) Len() int { return p.b.Len() }

// Load appends a blocking read of addr on node n.
func (p *Program) Load(n int, addr Addr) { p.b.Load(n, addr) }

// Store appends a buffered write of addr on node n.
func (p *Program) Store(n int, addr Addr) { p.b.Store(n, addr) }

// Compute appends a pure-compute delay on node n.
func (p *Program) Compute(n int, cycles Time) { p.b.Compute(n, cycles) }

// Barrier appends a global barrier across every node.
func (p *Program) Barrier() { p.b.Barrier() }
