// Package core implements the paper's coherence protocol: a directory-based
// write-invalidate protocol in the SGI Origin family extended with
// producer-consumer sharing detection (§2.2), directory delegation (§2.3)
// and speculative updates via delayed intervention (§2.4). Every mechanism
// lives in the hub (directory controller); the modeled processor is
// unmodified, exactly as the paper requires.
package core

import (
	"errors"
	"fmt"

	"pccsim/internal/cache"
	"pccsim/internal/delegate"
	"pccsim/internal/msg"
	"pccsim/internal/network"
	"pccsim/internal/protocol"
	"pccsim/internal/sim"
)

// Config describes one simulated machine. The zero value is not valid; use
// DefaultConfig (Table 1) and modify.
type Config struct {
	// Nodes is the number of processor/hub nodes (the paper models 16).
	Nodes int

	// Protocol selects the registered coherence protocol by name; the
	// empty string selects the default (the paper's "adaptive"
	// protocol). The name selects the protocol's one mechanism (see
	// protocol.Mechanism): "dsi" self-invalidates, "hybrid" pushes
	// updates. Validate rejects delegation, update and adaptive-delay
	// settings under any protocol whose mechanism is not delegation.
	Protocol string

	// L1 data cache geometry (Table 1: 2-way, 32 KB, 32 B lines).
	L1Bytes, L1Ways, L1LineBytes int
	// L2 unified cache geometry (Table 1: 4-way, 2 MB, 128 B lines).
	// The L2 line size is the coherence granularity.
	L2Bytes, L2Ways, L2LineBytes int

	// RACBytes is the remote access cache capacity; 0 disables the RAC
	// (the baseline system). RACWays is its associativity.
	RACBytes, RACWays int

	// DelegateEntries is the producer/consumer table size of the
	// delegate cache; 0 disables delegation (and therefore updates).
	DelegateEntries int
	// ConsumerEntries is the consumer-table size; defaults to
	// 4*DelegateEntries when 0 (hints are cheap, 6 bytes each).
	ConsumerEntries int

	// DirCacheEntries is the directory cache size whose entries carry
	// the sharing detector (8k entries on SGI Altix).
	DirCacheEntries int

	// EnableUpdates turns on speculative updates (requires delegation
	// and a RAC). Disabling it with delegation on gives the paper's
	// "delegation-only" ablation.
	EnableUpdates bool

	// InterventionDelay is the delayed-intervention interval in cycles
	// (§2.4.1, default 50; Figure 9 sweeps 5..500M). A zero value means
	// the default; use NoIntervention for the "infinite" point.
	InterventionDelay sim.Time

	// AdaptiveDelay enables the §5 extension: each producer-consumer
	// line learns its own intervention delay — halved when a consumer
	// read beats the intervention (delay too long), doubled when the
	// producer rewrites the line right after a downgrade (delay too
	// short). InterventionDelay seeds the per-line hints.
	AdaptiveDelay bool

	// DetectorWriters selects the sharing detector: 1 (default, the
	// paper's single-producer detector) or 2 (the §5 extension that
	// tolerates a stable pair of alternating writers).
	DetectorWriters int

	// Latencies, in 2 GHz processor cycles (Table 1).
	L1Latency   sim.Time // 2
	L2Latency   sim.Time // 10
	DirLatency  sim.Time // hub/directory occupancy per request
	DRAMLatency sim.Time // 200

	// RetryBackoff is the NACK retry delay.
	RetryBackoff sim.Time

	// MaxStores is the store-buffer depth: how many store misses a CPU
	// may have outstanding before it stalls (Table 1: max 16
	// outstanding L2C misses).
	MaxStores int

	// BarrierLatency models the (idealized) synchronization cost.
	BarrierLatency sim.Time

	// Network is the interconnect configuration; Network.Nodes is
	// forced to Nodes.
	Network network.Config

	// WatchdogSteps bounds how many engine events one run may execute
	// before it is aborted as a runaway (a protocol livelock would
	// otherwise hang the process forever inside sim.Engine.Run). 0
	// disables the guard. The guard never changes event order, so any
	// run that finishes under budget is unaffected.
	WatchdogSteps uint64

	// CheckInvariants enables the runtime coherence checks of §2.5
	// ("single writer exists" and "consistency within the directory",
	// checked at the completion of every transaction that incurs an L2
	// miss), plus the data-version oracle behind them, which
	// LatestVersion, VerifyValue and VerifyValues read. Tests enable it;
	// benchmark sweeps disable it for speed, and then keep no per-line
	// version table at all. Checks never change the simulated result.
	CheckInvariants bool

	// Shards partitions the machine into contiguous node groups, each
	// owning a private event engine (timing wheel, message pool) and its
	// nodes' slice of directory/home state. Shards advance in
	// conservative time windows whose width is the minimum cross-shard
	// network latency (see network.MinLookahead). 0 or 1 keeps the
	// classic single-engine scheduler, whose event order is the
	// bit-for-bit reproducibility reference.
	Shards int

	// ShardsParallel executes the shards on worker goroutines (the fast
	// mode). When false, a sharded system runs its shards round-robin on
	// one goroutine — the deterministic scheduler, which produces
	// results identical to the parallel mode at the same shard count.
	// Ignored when Shards <= 1.
	ShardsParallel bool
}

// NoIntervention is an InterventionDelay value that disables the delayed
// intervention entirely (the "Infinite" point of Figure 9): the producer
// keeps the line EXCL until a consumer's request forces a downgrade.
const NoIntervention = ^sim.Time(0)

// DefaultConfig returns the Table 1 system: 16 nodes, 2-way 32 KB L1,
// 4-way 2 MB L2 with 128 B lines, 100-cycle network hops, 200-cycle DRAM,
// and all paper mechanisms disabled (the baseline). Turn on the RAC,
// delegation and updates per experiment.
func DefaultConfig() Config {
	return Config{
		Nodes:             16,
		L1Bytes:           32 * 1024,
		L1Ways:            2,
		L1LineBytes:       32,
		L2Bytes:           2 * 1024 * 1024,
		L2Ways:            4,
		L2LineBytes:       128,
		RACBytes:          0,
		RACWays:           4,
		DelegateEntries:   0,
		DirCacheEntries:   8192,
		EnableUpdates:     false,
		InterventionDelay: 50,
		L1Latency:         2,
		L2Latency:         10,
		DirLatency:        20,
		DRAMLatency:       200,
		RetryBackoff:      100,
		MaxStores:         16,
		BarrierLatency:    200,
		Network:           network.DefaultConfig(),
	}
}

// Option mutates a Config; see With. Options are the composable way to
// size the paper's mechanisms — each one enables exactly one feature, so
// ablations read as the presence or absence of an option rather than as
// positional argument puzzles.
type Option func(*Config)

// WithRAC enables the remote access cache with the given capacity in
// kilobytes (the paper's §2.4 consumer-side structure; Figure 7 sizes it
// at 32 KB). For capacities that are not whole kilobytes, set
// Config.RACBytes directly.
func WithRAC(kiloBytes int) Option {
	return func(c *Config) { c.RACBytes = kiloBytes * 1024 }
}

// WithDelegation enables directory delegation (§2.3) with a producer
// table of the given entry count. Delegation requires a RAC (the producer
// pins delegated lines there): combine with WithRAC or Validate fails.
func WithDelegation(entries int) Option {
	return func(c *Config) { c.DelegateEntries = entries }
}

// WithSpeculativeUpdates enables speculative updates driven by delayed
// interventions (§2.4). delay is the intervention interval in cycles:
// 0 keeps the current setting (default 50), NoIntervention disables the
// timer (the "infinite" point of Figure 9). Requires delegation and a
// RAC.
func WithSpeculativeUpdates(delay sim.Time) Option {
	return func(c *Config) {
		c.EnableUpdates = true
		if delay != 0 {
			c.InterventionDelay = delay
		}
	}
}

// WithAdaptiveDelay enables the §5 per-line learned intervention delay.
func WithAdaptiveDelay() Option {
	return func(c *Config) { c.AdaptiveDelay = true }
}

// WithProtocol selects a registered coherence protocol by name (see
// internal/protocol; the empty name keeps the default "adaptive").
// Validate rejects unknown names, and delegation settings under a
// protocol whose mechanism is not delegation.
func WithProtocol(name string) Option {
	return func(c *Config) { c.Protocol = name }
}

// WithShards partitions the machine into n engine shards executed on
// worker goroutines (the fast scheduler). n <= 1 keeps the classic
// single engine; n must not exceed Nodes.
func WithShards(n int) Option {
	return func(c *Config) {
		c.Shards = n
		c.ShardsParallel = n > 1
	}
}

// WithDeterministicShards partitions like WithShards but keeps the
// serial round-robin scheduler: same shard topology, same results, one
// goroutine. This is the reference the fast mode is validated against
// and the mode to use when reproducing a parallel-run failure.
func WithDeterministicShards(n int) Option {
	return func(c *Config) {
		c.Shards = n
		c.ShardsParallel = false
	}
}

// With returns a copy of c with the options applied, in order.
func (c Config) With(opts ...Option) Config {
	for _, o := range opts {
		o(&c)
	}
	return c
}

// ErrBadConfig is wrapped by every Validate failure, so callers can class
// configuration mistakes with errors.Is without matching message text.
var ErrBadConfig = errors.New("core: invalid configuration")

// Validate checks the configuration for consistency. All failures wrap
// ErrBadConfig.
func (c *Config) Validate() error {
	if c.Nodes < 1 || c.Nodes > msg.MaxNodes {
		return fmt.Errorf("%w: Nodes = %d, want 1..%d (full-map sharing vector width)",
			ErrBadConfig, c.Nodes, msg.MaxNodes)
	}
	if c.L2LineBytes <= 0 || c.L1LineBytes <= 0 || c.L2LineBytes%c.L1LineBytes != 0 {
		return fmt.Errorf("%w: L2 line (%d) must be a multiple of L1 line (%d)",
			ErrBadConfig, c.L2LineBytes, c.L1LineBytes)
	}
	if c.RACBytes < 0 || c.DelegateEntries < 0 || c.ConsumerEntries < 0 {
		return fmt.Errorf("%w: RACBytes, DelegateEntries and ConsumerEntries must not be negative", ErrBadConfig)
	}
	if c.DelegateEntries > 0 && c.RACBytes == 0 {
		return fmt.Errorf("%w: delegation requires a RAC (the producer pins delegated lines there)", ErrBadConfig)
	}
	if c.EnableUpdates && (c.DelegateEntries == 0 || c.RACBytes == 0) {
		return fmt.Errorf("%w: speculative updates require delegation and a RAC", ErrBadConfig)
	}
	if err := c.validateGeometry(); err != nil {
		return err
	}
	if c.MaxStores <= 0 {
		return fmt.Errorf("%w: MaxStores must be positive", ErrBadConfig)
	}
	if c.DetectorWriters < 0 || c.DetectorWriters > 2 {
		return fmt.Errorf("%w: DetectorWriters = %d, want 0 (default), 1 or 2", ErrBadConfig, c.DetectorWriters)
	}
	if c.Shards < 0 || c.Shards > c.Nodes {
		return fmt.Errorf("%w: Shards = %d, want 0..Nodes (%d)", ErrBadConfig, c.Shards, c.Nodes)
	}
	proto, err := protocol.Lookup(c.Protocol)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadConfig, err)
	}
	if proto.Mechanism() != protocol.Delegation &&
		(c.DelegateEntries > 0 || c.EnableUpdates || c.AdaptiveDelay) {
		return fmt.Errorf("%w: protocol %q does not delegate; DelegateEntries, EnableUpdates and AdaptiveDelay need a delegation protocol",
			ErrBadConfig, proto.Name())
	}
	return nil
}

// validateGeometry checks every set-associative structure a hub builds
// against the rules of cache.SetCount, so a bad size is a typed error
// here rather than a panic in the constructor.
func (c *Config) validateGeometry() error {
	for _, g := range []struct {
		name                   string
		capacity, ways, lineSz int
		on                     bool
	}{
		{"L1", c.L1Bytes, c.L1Ways, c.L1LineBytes, true},
		{"L2", c.L2Bytes, c.L2Ways, c.L2LineBytes, true},
		{"RAC", c.RACBytes, c.RACWays, c.L2LineBytes, c.RACBytes > 0},
		{"directory cache", c.DirCacheEntries, dirCacheWays, 1, true},
		{"consumer table", c.consumerEntries(), delegate.ConsumerWays, 1, c.DelegateEntries > 0},
	} {
		if !g.on {
			continue
		}
		if _, err := cache.SetCount(g.capacity, g.ways, g.lineSz); err != nil {
			return fmt.Errorf("%w: %s geometry: %v", ErrBadConfig, g.name, err)
		}
	}
	return nil
}

// consumerEntries resolves the consumer-table size.
func (c *Config) consumerEntries() int {
	if c.ConsumerEntries > 0 {
		return c.ConsumerEntries
	}
	sets := 1
	for sets < c.DelegateEntries {
		sets <<= 1
	}
	return 4 * sets // set count must be a power of two
}

// interventionDelay resolves the delayed-intervention interval.
func (c *Config) interventionDelay() sim.Time {
	if c.InterventionDelay == 0 {
		return 50
	}
	return c.InterventionDelay
}
