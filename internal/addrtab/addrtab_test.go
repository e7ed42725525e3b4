package addrtab

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	var tab Table[int]
	if _, ok := tab.Get(0); ok {
		t.Fatal("empty table claims to hold address 0")
	}
	tab.Put(0, 10) // address 0 is valid
	tab.Put(128, 20)
	tab.Put(0, 11) // overwrite
	if v, ok := tab.Get(0); !ok || v != 11 {
		t.Fatalf("Get(0) = %d,%v want 11,true", v, ok)
	}
	if v, ok := tab.Get(128); !ok || v != 20 {
		t.Fatalf("Get(128) = %d,%v want 20,true", v, ok)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	if !tab.Delete(0) || tab.Delete(0) {
		t.Fatal("Delete(0) should succeed exactly once")
	}
	if _, ok := tab.Get(0); ok {
		t.Fatal("deleted key still present")
	}
	if v, ok := tab.Get(128); !ok || v != 20 {
		t.Fatalf("survivor lost after delete: %d,%v", v, ok)
	}
}

// TestAgainstMap cross-checks a long random op sequence — including the
// grow path and backward-shift deletion with wrap-around chains — against
// the built-in map.
func TestAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tab Table[uint64]
	ref := make(map[uint64]uint64)
	// Line-aligned addresses from a small pool force long probe chains.
	addr := func() uint64 { return uint64(rng.Intn(4096)) * 128 }
	for op := 0; op < 200000; op++ {
		a := addr()
		switch rng.Intn(4) {
		case 0:
			v := rng.Uint64()
			tab.Put(a, v)
			ref[a] = v
		case 1:
			_, wantOK := ref[a]
			if gotOK := tab.Delete(a); gotOK != wantOK {
				t.Fatalf("op %d: Delete(%#x) = %v, map says %v", op, a, gotOK, wantOK)
			}
			delete(ref, a)
		case 2:
			want, wantOK := ref[a]
			got, gotOK := tab.Get(a)
			if gotOK != wantOK || got != want {
				t.Fatalf("op %d: Get(%#x) = %d,%v, map says %d,%v", op, a, got, gotOK, want, wantOK)
			}
		case 3:
			// Slot finds or inserts (zero value), then stores through
			// the pointer.
			want, wantOK := ref[a]
			p, gotOK := tab.Slot(a)
			if gotOK != wantOK || *p != want {
				t.Fatalf("op %d: Slot(%#x) = %d,%v, map says %d,%v", op, a, *p, gotOK, want, wantOK)
			}
			v := rng.Uint64()
			*p = v
			ref[a] = v
		}
		if tab.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, map has %d", op, tab.Len(), len(ref))
		}
	}
	// Full sweep via Range.
	seen := make(map[uint64]uint64)
	tab.Range(func(k, v uint64) bool {
		seen[k] = v
		return true
	})
	if len(seen) != len(ref) {
		t.Fatalf("Range visited %d entries, want %d", len(seen), len(ref))
	}
	for k, v := range ref {
		if seen[k] != v {
			t.Fatalf("Range missed %#x=%d", k, v)
		}
	}
}

func TestGetPutZeroAlloc(t *testing.T) {
	var tab Table[*int]
	x := 5
	for i := 0; i < 100; i++ {
		tab.Put(uint64(i)*128, &x)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tab.Get(37 * 128)
		tab.Put(37*128, &x)
		p, _ := tab.Slot(37 * 128)
		*p = &x
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get+Put+Slot allocated %v allocs/op, want 0", allocs)
	}
}

func BenchmarkTableGet(b *testing.B) {
	var tab Table[*int]
	x := 0
	for i := 0; i < 1024; i++ {
		tab.Put(uint64(i)*128, &x)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab.Get(uint64(i&1023) * 128)
	}
}

func BenchmarkMapGet(b *testing.B) {
	ref := make(map[uint64]*int)
	x := 0
	for i := 0; i < 1024; i++ {
		ref[uint64(i)*128] = &x
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ref[uint64(i&1023)*128]
	}
}
