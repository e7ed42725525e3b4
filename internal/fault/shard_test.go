package fault

import (
	"testing"

	"pccsim/internal/core"
)

// TestCorpusReplayAcrossSchedulers replays every committed reproduction
// on sharded machines. Each case must stay clean at every shard count —
// the races they pin are timing-window races, and the sharded engine
// must resolve them just as coherently — and the parallel scheduler's
// verdict must equal the deterministic serial one bit for bit (the
// fuzz-level form of the engine's serial/parallel equivalence gate).
func TestCorpusReplayAcrossSchedulers(t *testing.T) {
	cases, names, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		for _, shards := range []int{2, 4} {
			det := c
			det.Machine.Shards, det.Machine.Parallel = shards, false
			fast := c
			fast.Machine.Shards, fast.Machine.Parallel = shards, true
			dres, fres := det.Run(), fast.Run()
			if !dres.Ok {
				t.Errorf("%s at %d shards (serial): %s", names[i], shards, dres.Failure)
			}
			dres.Wall, fres.Wall = 0, 0
			if dres != fres {
				t.Errorf("%s at %d shards: parallel verdict diverges from serial\nserial:   %+v\nparallel: %+v",
					names[i], shards, dres, fres)
			}
		}
	}
}

// TestCorpusReplayWideMachine replays every committed reproduction with
// the node count raised to 128 — four sharing-vector words wide, past
// the old uint64 limit. The ops only touch the original low node ids,
// but homes, directories and invariant sweeps all run at the full width.
// Serial and parallel must agree, and a replay pinned to fixed windows
// must return the bit-identical verdict: growth only merges windows, so
// even the event and perturbation counts may not move.
func TestCorpusReplayWideMachine(t *testing.T) {
	cases, names, err := LoadCorpus("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		wide := c
		wide.Machine.Nodes = 128
		wide.Machine.Shards, wide.Machine.Parallel = 4, false
		if err := wide.Validate(); err != nil {
			t.Fatalf("%s at 128 nodes: %v", names[i], err)
		}
		det := wide.Run()
		if !det.Ok {
			t.Errorf("%s at 128 nodes (serial): %s", names[i], det.Failure)
			continue
		}
		par := wide
		par.Machine.Parallel = true
		pres := par.Run()
		det.Wall, pres.Wall = 0, 0
		if det != pres {
			t.Errorf("%s at 128 nodes: parallel verdict diverges from serial\nserial:   %+v\nparallel: %+v",
				names[i], det, pres)
		}
		fixed := wide.run(func(sys *core.System) { sys.Group().PinWindows() })
		fixed.Wall = 0
		if det != fixed {
			t.Errorf("%s at 128 nodes: default verdict diverges from fixed windows\ndefault: %+v\nfixed:   %+v",
				names[i], det, fixed)
		}
	}
}

// TestCaseValidateShards pins the shard bounds a hand-edited repro must
// satisfy.
func TestCaseValidateShards(t *testing.T) {
	c := Case{Machine: Machine{Nodes: 4, Lines: 1, L2Lines: 4}}
	c.Machine.Shards = 5
	if err := c.Validate(); err == nil {
		t.Fatal("shards > nodes accepted")
	}
	c.Machine.Shards = -1
	if err := c.Validate(); err == nil {
		t.Fatal("negative shards accepted")
	}
	c.Machine.Shards = 4
	if err := c.Validate(); err != nil {
		t.Fatalf("shards == nodes rejected: %v", err)
	}
}
