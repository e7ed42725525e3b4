// Package workload generates the seven benchmark programs of the paper's
// evaluation (Table 2) as shared-memory op streams: Barnes and Ocean from
// SPLASH-2, the Split-C Em3D, and the NAS kernels LU, CG, MG and Appbt.
//
// We cannot execute the original binaries (UVSIM runs MIPS executables);
// instead each generator reproduces the property every studied mechanism
// is driven by — the coherence-visible sharing pattern: which node writes
// each line, which stable set of nodes reads it between writes (matching
// the consumer-count distributions of Table 3), how phases are separated
// by barriers, first-touch data placement, and the compute/communication
// ratio that determines how much of the runtime remote misses can cost.
// Problem sizes are scaled down so a pure-Go simulation finishes in
// seconds; the Scale parameter restores pressure where an experiment needs
// it (delegate-cache pressure in MG, RAC pressure in Appbt).
package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"pccsim/internal/cpu"
	"pccsim/internal/msg"
	"pccsim/internal/sim"
)

// Params configures a workload build.
type Params struct {
	Nodes int   // processor count (16 in the paper)
	Scale int   // problem-size multiplier; 0 means 1
	Iters int   // outer iterations; 0 means the workload default
	Seed  int64 // generator seed; 0 means a fixed per-workload seed
}

// ErrBadParams is wrapped by Validate failures.
var ErrBadParams = errors.New("workload: bad parameters")

// Validate rejects a negative Scale or Iters. Builds read them as the
// default, so accepting one would run one cell under two descriptions;
// callers taking outside input check it before building.
func (p Params) Validate() error {
	if p.Scale < 0 || p.Iters < 0 {
		return fmt.Errorf("%w: scale %d, iters %d: neither may be negative", ErrBadParams, p.Scale, p.Iters)
	}
	return nil
}

func (p Params) scale() int {
	if p.Scale <= 0 {
		return 1
	}
	return p.Scale
}

func (p Params) iters(def int) int {
	if p.Iters <= 0 {
		return def
	}
	return p.Iters
}

// Workload is one benchmark generator.
type Workload struct {
	Name      string
	PaperSize string // Table 2's problem size
	OurSize   func(p Params) string
	Build     func(p Params) [][]cpu.Op
}

// all is the registry, built once: every lookup of one name returns the
// same *Workload.
var all = []*Workload{Barnes(), Ocean(), Em3D(), LU(), CG(), MG(), Appbt()}

// All returns the seven benchmarks in the paper's order. The slice and
// its workloads are shared; callers must not modify them.
func All() []*Workload { return all }

// ByName finds a workload by (case-sensitive) name.
func ByName(name string) (*Workload, bool) {
	for _, w := range all {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// ErrUnknown is wrapped by Lookup failures, so callers can classify a
// bad workload name with errors.Is instead of matching message text.
var ErrUnknown = errors.New("workload: unknown workload")

// Lookup is ByName with a descriptive error: failures wrap ErrUnknown
// and list the valid names.
func Lookup(name string) (*Workload, error) {
	if w, ok := ByName(name); ok {
		return w, nil
	}
	names := make([]string, 0, len(all))
	for _, w := range all {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknown, name, names)
}

// LineBytes is the coherence granularity used for address layout.
const LineBytes = 128

// pageBytes matches the first-touch placement granularity.
const pageBytes = 4096

// Builder accumulates per-node op streams with shared barrier numbering:
// the one encoder of program operations, behind every workload and
// pccsim.Program. A generator writes its program into a Builder; build
// runs it twice, once to count each node's ops and once to fill slices
// allocated at exactly that size. A Builder from NewBuilder (an
// incremental program) appends instead, and Ops trims what it returns.
type Builder struct {
	streams [][]cpu.Op // per node; all empty on a counting pass
	counts  []int      // ops per node on a counting pass; nil otherwise
	barID   int
}

func (b *Builder) add(n int, op cpu.Op) {
	if b.counts != nil {
		b.counts[n]++
		return
	}
	b.streams[n] = append(b.streams[n], op)
}

// build turns a generator into a Workload.Build: one counting pass sizes
// every node's stream, one filling pass writes it into a single
// exact-size allocation. gen must write the same program both times
// (TestOpStreamDigests checks every stream comes out at exact size).
func build(gen func(Params, *Builder)) func(Params) [][]cpu.Op {
	return func(p Params) [][]cpu.Op {
		return buildOps(p.Nodes, func(b *Builder) { gen(p, b) })
	}
}

func buildOps(nodes int, gen func(*Builder)) [][]cpu.Op {
	count := &Builder{streams: make([][]cpu.Op, nodes), counts: make([]int, nodes)}
	gen(count)
	total := 0
	for _, c := range count.counts {
		total += c
	}
	all := make([]cpu.Op, total)
	fill := &Builder{streams: make([][]cpu.Op, nodes)}
	for n, c := range count.counts {
		fill.streams[n], all = all[:0:c], all[c:]
	}
	gen(fill)
	return fill.streams
}

// NewBuilder returns an empty builder over nodes streams.
func NewBuilder(nodes int) *Builder {
	return &Builder{streams: make([][]cpu.Op, nodes)}
}

// BuilderOf returns a builder whose streams start as ops (which it does
// not modify: appends go to new storage).
func BuilderOf(ops [][]cpu.Op) *Builder {
	b := NewBuilder(len(ops))
	for n, s := range ops {
		b.streams[n] = s[:len(s):len(s)]
	}
	return b
}

// Nodes returns the number of streams.
func (b *Builder) Nodes() int { return len(b.streams) }

// Len returns the total op count across nodes.
func (b *Builder) Len() int {
	n := 0
	for _, s := range b.streams {
		n += len(s)
	}
	return n
}

// Ops returns every node's ops, each trimmed to its length: a later
// append never writes into a returned slice.
func (b *Builder) Ops() [][]cpu.Op {
	out := make([][]cpu.Op, len(b.streams))
	for n, s := range b.streams {
		out[n] = s[:len(s):len(s)]
	}
	return out
}

// Barrier appends a global barrier to every stream. It panics once the
// barrier ids run past 32 bits (see cpu.BarrierOp).
func (b *Builder) Barrier() {
	op := cpu.BarrierOp(b.barID)
	b.barID++
	for n := range b.streams {
		b.add(n, op)
	}
}

// Load appends a blocking read of addr on node n.
func (b *Builder) Load(n int, addr msg.Addr) {
	b.add(n, cpu.Op{Kind: cpu.Load, Addr: addr})
}

// Store appends a buffered write of addr on node n.
func (b *Builder) Store(n int, addr msg.Addr) {
	b.add(n, cpu.Op{Kind: cpu.Store, Addr: addr})
}

// Compute appends a compute delay of cycles on node n.
func (b *Builder) Compute(n int, cycles sim.Time) {
	b.add(n, cpu.ComputeOp(cycles))
}

// region lays out arrays of lines at page-aligned bases so first-touch
// placement puts each owner's pages on its node.
type region struct {
	base msg.Addr
}

// newRegion returns an address-space carving helper; successive arrays are
// placed at disjoint, page-aligned bases.
func newRegion() *region { return &region{base: 0x1000_0000} }

// array reserves lines*LineBytes rounded up to whole pages and returns the
// base address of the array.
func (r *region) array(lines int) msg.Addr {
	base := r.base
	bytes := msg.Addr(lines) * LineBytes
	pages := (bytes + pageBytes - 1) / pageBytes
	r.base += pages * pageBytes
	// Keep one guard page between arrays so first-touch placement of
	// neighbouring arrays never shares a page.
	r.base += pageBytes
	return base
}

// lineAddr returns the address of line i of an array. Each logical line is
// padded to its own page when padToPage is set, so different owners' lines
// never share a first-touch page.
func lineAddr(base msg.Addr, i int) msg.Addr {
	return base + msg.Addr(i)*LineBytes
}

// ownedArray allocates per-owner arrays: lines for node n live on pages
// touched only by node n. It returns a lookup function (owner, index).
func ownedArray(r *region, nodes, linesPerNode int) func(owner, i int) msg.Addr {
	// Round each node's chunk up to whole pages so owners do not share
	// first-touch pages.
	linesPerPage := pageBytes / LineBytes
	chunkLines := ((linesPerNode + linesPerPage - 1) / linesPerPage) * linesPerPage
	base := r.array(nodes * chunkLines)
	return func(owner, i int) msg.Addr {
		if i >= linesPerNode {
			panic(fmt.Sprintf("workload: line index %d out of %d", i, linesPerNode))
		}
		return lineAddr(base, owner*chunkLines+i)
	}
}

// placedFirstTouch is firstTouch with an explicit placement schedule: the
// page containing each owner's lines is first touched by placer(owner),
// modeling initialization loops whose static schedule differs from the
// compute partitioning — the common reason the producer of a line is not
// its home node, and therefore the case directory delegation exists for.
func placedFirstTouch(p *Builder, nodes int, addr func(owner, i int) msg.Addr,
	lines int, placer func(owner int) int) {
	for n := 0; n < nodes; n++ {
		for i := 0; i < lines; i++ {
			p.Store(placer(n), addr(n, i))
		}
	}
	p.Barrier()
	// The eventual owners warm their caches (and the detector sees the
	// owner as a reader, not as noise).
	for n := 0; n < nodes; n++ {
		for i := 0; i < lines; i++ {
			p.Store(n, addr(n, i))
		}
	}
	p.Barrier()
}

// firstTouch makes every owner write its lines once so the memory system
// places the pages, then synchronizes (the "initialization phase" of the
// real benchmarks, excluded from the parallel phase the paper reports but
// necessary for SGI's first-touch policy to take effect).
func firstTouch(p *Builder, nodes int, addr func(owner, i int) msg.Addr, lines int) {
	for n := 0; n < nodes; n++ {
		for i := 0; i < lines; i++ {
			p.Store(n, addr(n, i))
		}
	}
	p.Barrier()
}

// consumersFor returns size stable consumers for a producer, chosen
// deterministically as the following nodes.
func consumersFor(owner, count, nodes int) []int {
	if count > nodes-1 {
		count = nodes - 1
	}
	out := make([]int, 0, count)
	for j := 1; j <= count; j++ {
		out = append(out, (owner+j)%nodes)
	}
	return out
}

// sampleConsumerCount draws a consumer-set size from a Table 3-style
// distribution: dist[0..3] are the probabilities of 1..4 consumers (in
// percent); the remainder draws uniformly from 5..max.
func sampleConsumerCount(rng *rand.Rand, dist [4]float64, max int) int {
	x := rng.Float64() * 100
	acc := 0.0
	for i, p := range dist {
		acc += p
		if x < acc {
			return i + 1
		}
	}
	if max < 5 {
		return max
	}
	return 5 + rng.Intn(max-4)
}
