package node

import (
	"reflect"
	"testing"

	"pccsim/internal/cpu"
	"pccsim/internal/sim"
	"pccsim/internal/workload"
)

// TestPrefetchStreamReplays checks the wrapper's two phases: the
// prefilled buffer replays in order, then the source resumes exactly
// where the prefill stopped, for buffers shorter and longer than the
// stream.
func TestPrefetchStreamReplays(t *testing.T) {
	mk := func(n int) cpu.Stream {
		i := 0
		return cpu.FuncStream(func() (cpu.Op, bool) {
			if i >= n {
				return cpu.Op{}, false
			}
			i++
			return cpu.Op{Kind: cpu.Compute, Cycles: sim.Time(i)}, true
		})
	}
	for _, tc := range []struct{ ops, prefetch int }{{10, 4}, {4, 10}, {4, 4}, {0, 4}} {
		p := newPrefetchStream(mk(tc.ops), tc.prefetch)
		var got []cpu.Op
		for {
			op, ok := p.Next()
			if !ok {
				break
			}
			got = append(got, op)
		}
		if len(got) != tc.ops {
			t.Fatalf("ops=%d prefetch=%d: replayed %d operations", tc.ops, tc.prefetch, len(got))
		}
		for i, op := range got {
			if want := sim.Time(i + 1); op.Cycles != want {
				t.Fatalf("ops=%d prefetch=%d: op %d cycles %d, want %d (order broken at the buffer seam)",
					tc.ops, tc.prefetch, i, op.Cycles, want)
			}
		}
	}
}

// TestLazyStreamShardEquivalence runs the same program once as slice
// streams and once as lazy generators on identical sharded machines.
// em3d's per-node programs fit inside the prefetch buffer, so placement
// pre-resolution sees the whole program either way and the stats must
// match exactly — including between the serial and parallel schedulers
// driving lazy streams.
func TestLazyStreamShardEquivalence(t *testing.T) {
	wl, _ := workload.ByName("em3d")
	cfg := wideConfig(16, 4, false)
	ops := wl.Build(workload.Params{Nodes: cfg.Nodes, Iters: 1})

	run := func(lazy, parallel bool) interface{} {
		c := cfg
		c.ShardsParallel = parallel
		m, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		streams := make([]cpu.Stream, len(ops))
		for i := range ops {
			if lazy {
				prog, pos := ops[i], 0
				streams[i] = cpu.FuncStream(func() (cpu.Op, bool) {
					if pos >= len(prog) {
						return cpu.Op{}, false
					}
					op := prog[pos]
					pos++
					return op, true
				})
			} else {
				streams[i] = &cpu.SliceStream{Ops: ops[i]}
			}
		}
		st, err := m.Run(streams)
		if err != nil {
			t.Fatalf("lazy=%v parallel=%v: %v", lazy, parallel, err)
		}
		return st
	}

	slice := run(false, false)
	lazySerial := run(true, false)
	lazyParallel := run(true, true)
	if !reflect.DeepEqual(slice, lazySerial) {
		t.Errorf("lazy streams diverge from slice streams under the serial scheduler")
	}
	if !reflect.DeepEqual(lazySerial, lazyParallel) {
		t.Errorf("lazy streams: parallel scheduler diverges from serial")
	}
}
