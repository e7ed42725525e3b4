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

// filledBlocks counts the set blocks handed out.
func (a *Array[T]) filledBlocks() int { return int(a.next-a.blockMask) - 1 }

// TestArrayFirstTouch pins the storage rule: misses, touches and
// removals in never-filled sets allocate nothing, each set's first fill
// takes exactly one set block (so k sets that share one 16-set span of
// address space take k blocks, not the span), refills of a filled set
// take nothing more, and a page is allocated only when the blocks run
// out.
func TestArrayFirstTouch(t *testing.T) {
	a := NewArray[Line](4096, 4, 128)
	if allocs := testing.AllocsPerRun(100, func() {
		for s := uint64(0); s < 4096; s += 7 {
			if a.Lookup(s*128) != nil || a.Touch(s*128) != nil || a.Remove(s*128) != nil {
				t.Fatal("hit in an empty array")
			}
		}
	}); allocs != 0 || a.filledBlocks() != 0 {
		t.Fatalf("misses in never-filled sets made %.0f allocations and %d blocks", allocs, a.filledBlocks())
	}
	for k := 1; k <= 5; k++ {
		a.Fill(uint64(3*k)*128, nil) // sets 3, 6, ..., 15: one 16-set span
		if got := a.filledBlocks(); got != k {
			t.Fatalf("%d fills in %d sets allocated %d blocks", k, k, got)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for w := uint64(0); w < 6; w++ { // more lines than ways: evictions
			a.Fill((6+w*4096)*128, nil)
		}
		a.Touch(6 * 128)
		a.Remove(6 * 128)
	}); allocs != 0 || a.filledBlocks() != 5 {
		t.Fatalf("refills of a filled set made %.0f allocations and %d blocks", allocs, a.filledBlocks())
	}
	if got := len(a.pages); got != 2 {
		t.Fatalf("5 blocks took %d pages with the sentinel, want 2", got)
	}
	for s := uint64(16); s < 16+chunkSets; s++ {
		a.Fill(s*128, nil)
	}
	if a.filledBlocks() != 5+chunkSets || len(a.pages) != 3 {
		t.Fatalf("%d blocks took %d pages with the sentinel, want %d and 3",
			a.filledBlocks(), len(a.pages), 5+chunkSets)
	}
	if a.Count() != 4+4+chunkSets {
		t.Fatalf("Count = %d, want %d", a.Count(), 4+4+chunkSets)
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
// across page boundaries, ways in order within a set, when sets were
// first filled last to first (so their blocks sit in reverse order).
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
