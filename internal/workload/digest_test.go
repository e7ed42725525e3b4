package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"pccsim/internal/cpu"
	"pccsim/internal/sim"
)

// opDigest hashes every node's decoded op stream: the node, its op
// count, then per op the kind, address, compute cycles and barrier id
// (each zero where the kind has none).
func opDigest(ops [][]cpu.Op) string {
	h := sha256.New()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for n, s := range ops {
		word(uint64(n))
		word(uint64(len(s)))
		for _, op := range s {
			var addr, cycles, bar uint64
			switch op.Kind {
			case cpu.Load, cpu.Store:
				addr = uint64(op.Addr)
			case cpu.Compute:
				cycles = uint64(op.Cycles())
			case cpu.Barrier:
				bar = uint64(op.Bar)
			}
			h.Write([]byte{byte(op.Kind)})
			word(addr)
			word(cycles)
			word(bar)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestOpStreamDigests pins every app's op stream on 16 nodes (and
// em3d's on 256), as built by the 32-byte ops and append-grown streams
// before the 16-byte encoding and the chunked builder: neither may
// change an op.
func TestOpStreamDigests(t *testing.T) {
	for _, c := range []struct {
		app    string
		nodes  int
		scale  int
		digest string
	}{
		{"barnes", 16, 1, "04556f490a30aa850f17bb7bb34f3bea73c30b79070f14a3af45564a3462c3a2"},
		{"ocean", 16, 1, "3bef7458dcd1f4dcc112bfcd5e71aef680938d50e7a9a9408d978b153ebb1602"},
		{"em3d", 16, 1, "504660d479ffc42582a8fe72a764f8a0fe22ceef4f7b1cbcbabba5503e045b4c"},
		{"lu", 16, 1, "5c667e4d54005136165ad5ba2b2e8ae37b97ddf12e648b8c85f1e2a6adcaca3a"},
		{"cg", 16, 1, "ca4a31b105fe1e4d4c185c54a388b6b79040a400e48145539ecd8d55d079fcaf"},
		{"mg", 16, 1, "c4d736a43875dea38c5985a0dc3a2dad41da57da5759858cd80e33bae85e3ba5"},
		{"appbt", 16, 1, "c0268a0f80163322b2789e70455a11a82c8dd5ae08a186a8ab1dacc769a962c6"},
		{"barnes", 16, 16, "f4966fe492dd6328f298f3568a4124f54dc7f96c05b33eaa8936898d2b12e70b"},
		// The wide-256 benchmark's program.
		{"em3d", 256, 2, "2d41fbbfc96f0cf389fbb2f1e0b46a0332f7268cf3f96aae4b888103d1ee491c"},
	} {
		w, _ := ByName(c.app)
		ops := w.Build(Params{Nodes: c.nodes, Scale: c.scale})
		if got := opDigest(ops); got != c.digest {
			t.Errorf("%s %d nodes scale %d: op digest %s, want %s", c.app, c.nodes, c.scale, got, c.digest)
		}
		for n, s := range ops {
			if len(s) != cap(s) {
				t.Errorf("%s scale %d: node %d stream has len %d, cap %d: not built to exact size",
					c.app, c.scale, n, len(s), cap(s))
			}
		}
	}
}

// TestCompactFieldsNeverTruncate: a Compute keeps all 64 bits of its
// cycle count, and a barrier id past 32 bits panics instead of wrapping.
func TestCompactFieldsNeverTruncate(t *testing.T) {
	b := NewBuilder(1)
	b.Compute(0, math.MaxUint64)
	b.barID = math.MaxUint32
	b.Barrier() // the last id that fits
	ops := b.Ops()[0]
	if got := ops[0].Cycles(); got != sim.Time(math.MaxUint64) {
		t.Fatalf("Compute(MaxUint64) reads back %d cycles", got)
	}
	if ops[1].Kind != cpu.Barrier || ops[1].Bar != math.MaxUint32 {
		t.Fatalf("barrier %d reads back as %+v", uint64(math.MaxUint32), ops[1])
	}
	for _, id := range []int{math.MaxUint32 + 1, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("barrier id %d did not panic", id)
				}
			}()
			cpu.BarrierOp(id)
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("Builder.Barrier past 32-bit ids did not panic")
		}
	}()
	b.Barrier()
}

// TestOpSize pins cpu.Op at 16 bytes: every program is materialized at
// this cost per op.
func TestOpSize(t *testing.T) {
	if n := unsafe.Sizeof(cpu.Op{}); n != 16 {
		t.Fatalf("cpu.Op is %d bytes, want 16", n)
	}
}

// TestBuilderAppendZeroAlloc: an append into a chunk with room allocates
// nothing, and Ops hands back a stream already at exact size uncopied.
func TestBuilderAppendZeroAlloc(t *testing.T) {
	b := NewBuilder(1)
	b.Load(0, 0)
	if allocs := testing.AllocsPerRun(100, func() { b.Store(0, 128) }); allocs != 0 {
		t.Fatalf("append allocated %v times per op, want 0", allocs)
	}
	first := b.Ops()[0]
	if again := b.Ops()[0]; &again[0] != &first[0] || len(again) != len(first) {
		t.Fatal("Ops copied a stream that was already exact")
	}
	b.Load(0, 256)
	if got := b.Ops()[0]; len(got) != len(first)+1 || got[len(got)-1].Addr != 256 || first[len(first)-1].Addr != 128 {
		t.Fatal("append after Ops lost an op or wrote into the returned slice")
	}
}
