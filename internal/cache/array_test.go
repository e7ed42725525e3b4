package cache

import "testing"

func TestSetCount(t *testing.T) {
	for _, tc := range []struct {
		capacity, ways, line, sets int
	}{
		{2 << 20, 4, 128, 4096}, // Table 1 L2
		{32 << 10, 2, 32, 512},  // Table 1 L1
		{8192, 4, 1, 2048},      // directory cache, in entries
		{128, 1, 128, 1},
		{0, 1, 128, 0},       // empty
		{1024, 0, 128, 0},    // no ways
		{3 * 128, 1, 128, 0}, // 3 sets
		{6 * 128, 2, 128, 0}, // 3 sets of 2 ways
		{3 * 128, 2, 128, 0}, // not divisible into ways
		{1000, 1, 100, 0},    // line not a power of two
		{100, 1, 128, 0},     // capacity not a whole number of lines
	} {
		sets, err := SetCount(tc.capacity, tc.ways, tc.line)
		if tc.sets == 0 {
			if err == nil {
				t.Errorf("SetCount(%d, %d, %d) = %d, want an error", tc.capacity, tc.ways, tc.line, sets)
			}
		} else if err != nil || sets != tc.sets {
			t.Errorf("SetCount(%d, %d, %d) = %d, %v; want %d", tc.capacity, tc.ways, tc.line, sets, err, tc.sets)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewArray accepted 3 sets")
		}
	}()
	NewArray[int](3, 1, 128)
}

// filledChunks counts the chunks that own storage.
func (a *Array[T]) filledChunks() int {
	n := 0
	for _, ch := range a.chunks {
		if ch.vals != nil {
			n++
		}
	}
	return n
}

// TestArrayFirstTouch pins the storage rule: lookups, touches and
// removals in untouched chunks allocate nothing, and a fill allocates
// exactly the chunk holding its set.
func TestArrayFirstTouch(t *testing.T) {
	a := NewArray[Line](4096, 4, 128)
	if allocs := testing.AllocsPerRun(100, func() {
		for s := uint64(0); s < 4096; s += 7 {
			if a.Lookup(s*128) != nil || a.Touch(s*128) != nil || a.Remove(s*128) != nil {
				t.Fatal("hit in an empty array")
			}
		}
	}); allocs != 0 || a.filledChunks() != 0 {
		t.Fatalf("misses in untouched chunks made %.0f allocations and %d chunks", allocs, a.filledChunks())
	}
	a.Fill(5*128, nil)
	a.Fill(4095*128, nil)
	a.Fill((5+4096)*128, nil) // same set as the first fill
	if got := a.filledChunks(); got != 2 {
		t.Fatalf("three fills in two chunks allocated %d chunks", got)
	}
	if a.Count() != 3 {
		t.Fatalf("Count = %d, want 3", a.Count())
	}
}

// TestArrayAllPinned checks that a refused fill changes nothing: not the
// residents, not their recency.
func TestArrayAllPinned(t *testing.T) {
	a := NewArray[int](1, 2, 128)
	pinned := func(v *int) bool { return *v < 0 }
	for i, addr := range []uint64{0, 128} {
		v, prior := a.Fill(addr, pinned)
		if prior != WasEmpty {
			t.Fatalf("fill %d: prior %d, want WasEmpty", i, prior)
		}
		*v = -1
	}
	clock := a.clock
	if v, prior := a.Fill(256, pinned); v != nil || prior != AllPinned {
		t.Fatalf("fill into a pinned set = %v, %d; want nil, AllPinned", v, prior)
	}
	if a.clock != clock || a.Lookup(0) == nil || a.Lookup(128) == nil {
		t.Fatal("a refused fill changed the set")
	}
	*a.Lookup(128) = 1 // unpin the second way
	if v, prior := a.Fill(256, pinned); v == nil || prior != WasEvicted || *v != 1 {
		t.Fatalf("fill = %v, %d; want the unpinned way, WasEvicted", v, prior)
	}
}

// TestArrayForEachSetOrder checks that ForEach walks sets in index order
// across chunk boundaries, ways in order within a set.
func TestArrayForEachSetOrder(t *testing.T) {
	const sets = 4 * chunkSets
	a := NewArray[uint64](sets, 2, 128)
	for s := sets - 1; s >= 0; s-- {
		for w := uint64(0); w < 2; w++ {
			addr := (uint64(s) + w*sets) * 128
			v, _ := a.Fill(addr, nil)
			*v = addr
		}
	}
	var prev uint64
	n := 0
	a.ForEach(func(v *uint64) {
		set := *v / 128 % sets
		if n > 0 && set < prev%sets {
			t.Fatalf("ForEach visited set %d after set %d", set, prev%sets)
		}
		prev = *v / 128
		n++
	})
	if n != 2*sets {
		t.Fatalf("ForEach visited %d ways, want %d", n, 2*sets)
	}
}
