package mem

import (
	"testing"
	"testing/quick"

	"pccsim/internal/msg"
)

func TestFirstTouch(t *testing.T) {
	m := New(16, 4096)
	if h := m.Home(0x1000, 3); h != 3 {
		t.Fatalf("first touch home = %d, want 3", h)
	}
	// Second toucher does not move the page.
	if h := m.Home(0x1800, 9); h != 3 {
		t.Fatalf("second touch home = %d, want 3 (same page)", h)
	}
	// A different page is assigned independently.
	if h := m.Home(0x2000, 9); h != 9 {
		t.Fatalf("new page home = %d, want 9", h)
	}
}

func TestHomeIfPlaced(t *testing.T) {
	m := New(16, 4096)
	if _, ok := m.HomeIfPlaced(0x1000); ok {
		t.Fatal("unplaced page reported placed")
	}
	m.Home(0x1000, 2)
	h, ok := m.HomeIfPlaced(0x1fff)
	if !ok || h != 2 {
		t.Fatalf("HomeIfPlaced = %d,%v", h, ok)
	}
}

// TestPlaceRange: placing one address per page of 0x1000..0x3fff homes
// every byte of those three pages, and nothing else.
func TestPlaceRange(t *testing.T) {
	m := New(16, 4096)
	for a := msg.Addr(0x1800); a < 0x4000; a += 4096 {
		m.Place(a, 7)
	}
	for _, a := range []msg.Addr{0x1000, 0x2000, 0x3000, 0x3fff} {
		if h := m.Home(a, 0); h != 7 {
			t.Fatalf("addr %#x homed at %d, want 7", uint64(a), h)
		}
	}
	if len(m.pages) != 3 {
		t.Fatalf("%d pages placed, want 3 (0x1000..0x3fff spans pages 1,2,3)", len(m.pages))
	}
}

func TestPlaceOverrides(t *testing.T) {
	m := New(16, 4096)
	m.Place(0x1000, 5)
	if h := m.Home(0x1000, 0); h != 5 {
		t.Fatalf("explicit placement ignored: home = %d", h)
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 4096) },
		func() { New(4, 0) },
		func() { New(4, 3000) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}

// Property: homes are stable — once assigned, any toucher sees the same
// home forever, and an unplaced page is homed at its first toucher.
func TestPropertyStableHomes(t *testing.T) {
	f := func(addrs []uint32, touchers []uint8) bool {
		if len(touchers) == 0 {
			return true
		}
		m := New(16, 4096)
		first := map[uint64]msg.NodeID{}
		for i, a := range addrs {
			toucher := msg.NodeID(touchers[i%len(touchers)] % 16)
			h := m.Home(msg.Addr(a), toucher)
			page := uint64(a) / 4096
			if prev, ok := first[page]; ok {
				if h != prev {
					return false
				}
			} else {
				if h != toucher {
					return false
				}
				first[page] = h
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
