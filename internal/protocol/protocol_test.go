package protocol

import (
	"errors"
	"sort"
	"testing"

	"pccsim/internal/msg"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	want := []string{"adaptive", "dsi", "hybrid", "mesi"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

func TestLookup(t *testing.T) {
	for _, name := range Names() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("Lookup(%q).Name() = %q", name, p.Name())
		}
		if p.Description() == "" {
			t.Errorf("%s: empty description", name)
		}
	}

	p, err := Lookup("")
	if err != nil {
		t.Fatalf("Lookup(\"\"): %v", err)
	}
	if p.Name() != Default {
		t.Fatalf("Lookup(\"\") = %q, want default %q", p.Name(), Default)
	}

	if _, err := Lookup("mosi"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("Lookup(mosi) err = %v, want ErrUnknown", err)
	}
}

func TestAllMatchesNames(t *testing.T) {
	all := All()
	names := Names()
	if len(all) != len(names) {
		t.Fatalf("All() has %d entries, Names() %d", len(all), len(names))
	}
	for i, p := range all {
		if p.Name() != names[i] {
			t.Fatalf("All()[%d] = %q, want %q", i, p.Name(), names[i])
		}
	}
}

// TestAdaptiveDecision pins the paper protocol's shared-write rule to
// the pre-plugin simulator's: delegate exactly when delegation is on,
// the line is producer-consumer, and the writer is remote.
func TestAdaptiveDecision(t *testing.T) {
	p, _ := Lookup("adaptive")
	cases := []struct {
		name string
		v    WriteView
		want WriteDecision
	}{
		{"remote-pc-delegation-on", WriteView{Requester: 1, Home: 0, IsPC: true, DelegationOn: true}, Delegate},
		{"local-writer", WriteView{Requester: 0, Home: 0, IsPC: true, DelegationOn: true}, Invalidate},
		{"not-pc", WriteView{Requester: 1, Home: 0, IsPC: false, DelegationOn: true}, Invalidate},
		{"delegation-off", WriteView{Requester: 1, Home: 0, IsPC: true, DelegationOn: false}, Invalidate},
	}
	for _, c := range cases {
		if got := p.SharedWrite(c.v); got != c.want {
			t.Errorf("%s: SharedWrite = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestHybridDecision(t *testing.T) {
	p, _ := Lookup("hybrid")
	if p.Mechanism() != UpdatePush {
		t.Fatal("hybrid must run UpdatePush")
	}
	if p.UpdateStreakLimit() <= 0 {
		t.Fatal("hybrid must have a positive update streak limit")
	}
	targets := msg.Vector{}.Set(2).Set(3)
	if got := p.SharedWrite(WriteView{Requester: 1, IsPC: true, Targets: targets}); got != PushUpdates {
		t.Fatalf("hybrid PC write with sharers: got %v, want PushUpdates", got)
	}
	if got := p.SharedWrite(WriteView{Requester: 1, IsPC: true}); got != Invalidate {
		t.Fatalf("hybrid PC write without sharers: got %v, want Invalidate", got)
	}
	if got := p.SharedWrite(WriteView{Requester: 1, IsPC: false, Targets: targets}); got != Invalidate {
		t.Fatalf("hybrid non-PC write: got %v, want Invalidate", got)
	}
}

// TestMechanisms pins the one mechanism each protocol name selects.
func TestMechanisms(t *testing.T) {
	want := map[string]Mechanism{
		"adaptive": Delegation,
		"dsi":      SelfInvalidation,
		"hybrid":   UpdatePush,
		"mesi":     None,
	}
	for _, p := range All() {
		if got := p.Mechanism(); got != want[p.Name()] {
			t.Errorf("%s: Mechanism = %v, want %v", p.Name(), got, want[p.Name()])
		}
	}
}

// TestDecisionLegality checks the interface contract: only protocols
// running a mechanism may return the decision that needs it.
func TestDecisionLegality(t *testing.T) {
	targets := msg.Vector{}.Set(2)
	views := []WriteView{
		{},
		{Requester: 1, Home: 0, IsPC: true, DelegationOn: true, Targets: targets},
		{Requester: 1, Home: 0, IsPC: true, Targets: targets},
		{Requester: 0, Home: 0, IsPC: false, DelegationOn: true, Targets: targets},
	}
	for _, p := range All() {
		m := p.Mechanism()
		for _, v := range views {
			switch d := p.SharedWrite(v); d {
			case Delegate:
				if m != Delegation {
					t.Errorf("%s returned Delegate without the Delegation mechanism", p.Name())
				}
				if !v.DelegationOn {
					t.Errorf("%s returned Delegate with delegation disabled", p.Name())
				}
			case PushUpdates:
				if m != UpdatePush {
					t.Errorf("%s returned PushUpdates without the UpdatePush mechanism", p.Name())
				}
			case Invalidate:
			default:
				t.Errorf("%s returned unknown decision %v", p.Name(), d)
			}
		}
	}
}

func TestWriteDecisionString(t *testing.T) {
	if Invalidate.String() != "Invalidate" || Delegate.String() != "Delegate" || PushUpdates.String() != "PushUpdates" {
		t.Fatal("WriteDecision.String mismatch")
	}
	if WriteDecision(99).String() != "WriteDecision(99)" {
		t.Fatal("unknown WriteDecision.String mismatch")
	}
}
