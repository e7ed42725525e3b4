package protocol

import (
	"errors"
	"sort"
	"testing"
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

// TestLookup checks Lookup by each name, by the empty name (the default)
// and the ErrUnknown classification of a bad name.
func TestLookup(t *testing.T) {
	all := All()
	for i, name := range Names() {
		p, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if p.Name() != name || p != all[i] {
			t.Fatalf("Lookup(%q) = %v, want row %d (%v)", name, p, i, all[i])
		}
	}

	p, err := Lookup("")
	if err != nil {
		t.Fatalf("Lookup(\"\"): %v", err)
	}
	if p.Name() != Default || Default != "adaptive" {
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

// TestAdaptiveDecision pins the paper protocol's shared-write rule:
// delegate exactly when the line is producer-consumer and the writer is
// remote. Delegation off is the None mechanism (the hub runs a
// delegation protocol without a delegate cache as None), which never
// delegates.
func TestAdaptiveDecision(t *testing.T) {
	p, _ := Lookup("adaptive")
	m := p.Mechanism()
	cases := []struct {
		name                  string
		mech                  Mechanism
		isPC, remote, sharers bool
		want                  WriteDecision
	}{
		{"remote-pc-delegation-on", m, true, true, false, Delegate},
		{"local-writer", m, true, false, false, Invalidate},
		{"not-pc", m, false, true, false, Invalidate},
		{"delegation-off", None, true, true, false, Invalidate},
	}
	for _, c := range cases {
		if got := c.mech.SharedWrite(c.isPC, c.remote, c.sharers); got != c.want {
			t.Errorf("%s: SharedWrite = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestHybridDecision(t *testing.T) {
	p, _ := Lookup("hybrid")
	m := p.Mechanism()
	if m != UpdatePush {
		t.Fatal("hybrid must run UpdatePush")
	}
	if HybridStreakLimit <= 0 {
		t.Fatal("hybrid must have a positive update streak limit")
	}
	if got := m.SharedWrite(true, true, true); got != PushUpdates {
		t.Fatalf("hybrid PC write with sharers: got %v, want PushUpdates", got)
	}
	if got := m.SharedWrite(true, true, false); got != Invalidate {
		t.Fatalf("hybrid PC write without sharers: got %v, want Invalidate", got)
	}
	if got := m.SharedWrite(false, true, true); got != Invalidate {
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
	if len(All()) != len(want) {
		t.Fatalf("All() has %d rows, want %d", len(All()), len(want))
	}
	for _, p := range All() {
		if got := p.Mechanism(); got != want[p.Name()] {
			t.Errorf("%s: Mechanism = %v, want %v", p.Name(), got, want[p.Name()])
		}
	}
}

// TestDecisionLegality checks every mechanism against every (isPC,
// remote, sharers) input. Delegation delegates exactly a
// producer-consumer line written by a remote node (§2.3.1); UpdatePush
// pushes exactly a producer-consumer write that has sharers to reach;
// every other input, and every input under None and SelfInvalidation,
// invalidates. So only Delegation may Delegate and only UpdatePush may
// PushUpdates.
func TestDecisionLegality(t *testing.T) {
	type input struct {
		mech                  Mechanism
		isPC, remote, sharers bool
	}
	// Inputs missing here must decide Invalidate, the zero WriteDecision.
	want := map[input]WriteDecision{
		{Delegation, true, true, false}: Delegate,
		{Delegation, true, true, true}:  Delegate,
		{UpdatePush, true, false, true}: PushUpdates,
		{UpdatePush, true, true, true}:  PushUpdates,
	}
	for _, m := range []Mechanism{None, Delegation, SelfInvalidation, UpdatePush} {
		for bits := 0; bits < 8; bits++ {
			in := input{m, bits&4 != 0, bits&2 != 0, bits&1 != 0}
			if got := m.SharedWrite(in.isPC, in.remote, in.sharers); got != want[in] {
				t.Errorf("%+v: SharedWrite = %v, want %v", in, got, want[in])
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
