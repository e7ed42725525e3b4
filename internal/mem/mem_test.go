package mem

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"pccsim/internal/msg"
)

func TestFirstTouch(t *testing.T) {
	m := New(4096)
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
	m := New(4096)
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
	m := New(4096)
	for a := msg.Addr(0x1800); a < 0x4000; a += 4096 {
		m.Place(a, 7)
	}
	for _, a := range []msg.Addr{0x1000, 0x2000, 0x3000, 0x3fff} {
		if h := m.Home(a, 0); h != 7 {
			t.Fatalf("addr %#x homed at %d, want 7", uint64(a), h)
		}
	}
	if n := m.pages.Len(); n != 3 {
		t.Fatalf("%d pages placed, want 3 (0x1000..0x3fff spans pages 1,2,3)", n)
	}
}

func TestPlaceOverrides(t *testing.T) {
	m := New(4096)
	m.Place(0x1000, 5)
	if h := m.Home(0x1000, 0); h != 5 {
		t.Fatalf("explicit placement ignored: home = %d", h)
	}
}

// TestSharedHomeNeedsPlacement: once shared, the table only reads. A
// placed page keeps its home whoever asks, and an unplaced one panics
// naming the address instead of being homed at its first toucher.
func TestSharedHomeNeedsPlacement(t *testing.T) {
	m := New(4096)
	m.Place(0x1000, 5)
	m.EnableSharedAccess()
	if h := m.Home(0x1fff, 2); h != 5 {
		t.Fatalf("placed page homed at %d, want 5", h)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Home of an unplaced page on a shared table did not panic")
		}
		if s := fmt.Sprint(r); !strings.Contains(s, "0x2040") {
			t.Fatalf("panic %q does not name the address 0x2040", s)
		}
		if _, ok := m.HomeIfPlaced(0x2040); ok {
			t.Fatal("the panicking lookup placed the page")
		}
	}()
	m.Home(0x2040, 2)
}

func TestBadConfigPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0) },
		func() { New(3000) },
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
		m := New(4096)
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
