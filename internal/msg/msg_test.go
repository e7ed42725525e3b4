package msg

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestVectorSetClearHas(t *testing.T) {
	var v Vector
	v = v.Set(3).Set(7).Set(0)
	for _, n := range []NodeID{0, 3, 7} {
		if !v.Has(n) {
			t.Fatalf("vector missing node %d", n)
		}
	}
	if v.Has(1) || v.Has(15) {
		t.Fatal("vector has nodes never set")
	}
	v = v.Clear(3)
	if v.Has(3) {
		t.Fatal("Clear(3) did not remove node 3")
	}
	if v.Count() != 2 {
		t.Fatalf("Count = %d, want 2", v.Count())
	}
}

func TestVectorNodesSorted(t *testing.T) {
	v := Vector{}.Set(9).Set(1).Set(14)
	nodes := v.Nodes()
	want := []NodeID{1, 9, 14}
	if len(nodes) != len(want) {
		t.Fatalf("Nodes = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("Nodes = %v, want %v", nodes, want)
		}
	}
}

func TestVectorOnly(t *testing.T) {
	v := Vector{}.Set(5)
	if v.Only("test") != 5 {
		t.Fatalf("Only = %d, want 5", v.Only("test"))
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Only on 2-member vector did not panic")
		}
		// The panic must name the call site and the member count so a
		// directory-corruption report is actionable without a stack dive.
		s, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, frag := range []string{"TestVectorOnly call site", "2 members", "[1 2]"} {
			if !strings.Contains(s, frag) {
				t.Fatalf("panic %q missing %q", s, frag)
			}
		}
	}()
	Vector{}.Set(1).Set(2).Only("TestVectorOnly call site")
}

func TestVectorSingleTypedError(t *testing.T) {
	if n, err := (Vector{}.Set(130)).Single(); err != nil || n != 130 {
		t.Fatalf("Single = %d, %v; want 130, nil", n, err)
	}
	for _, v := range []Vector{{}, Vector{}.Set(1).Set(2), Vector{}.Set(63).Set(64)} {
		n, err := v.Single()
		if err == nil {
			t.Fatalf("Single(%v) = %d, nil; want error", v, n)
		}
		var nse *NotSingletonError
		if !errors.As(err, &nse) {
			t.Fatalf("Single(%v) error %T, want *NotSingletonError", v, err)
		}
		if nse.V != v {
			t.Fatalf("error vector = %v, want %v", nse.V, v)
		}
	}
}

// TestVectorBoundaries exercises nodes straddling the 64-bit word
// boundaries that the old uint64 vector could not represent.
func TestVectorBoundaries(t *testing.T) {
	for _, n := range []NodeID{0, 1, 63, 64, 65, 127, 128, 129, 191, 192, 254, 255} {
		v := Vector{}.Set(n)
		if !v.Has(n) {
			t.Fatalf("Set(%d): Has = false", n)
		}
		if v.Count() != 1 {
			t.Fatalf("Set(%d): Count = %d, want 1", n, v.Count())
		}
		if got := v.Only("boundary"); got != n {
			t.Fatalf("Set(%d): Only = %d", n, got)
		}
		if got := v.Lowest(); got != n {
			t.Fatalf("Set(%d): Lowest = %d", n, got)
		}
		if !v.ClearLowest().Empty() {
			t.Fatalf("Set(%d): ClearLowest not empty", n)
		}
		if !v.Clear(n).Empty() {
			t.Fatalf("Set(%d).Clear(%d) not empty", n, n)
		}
		for _, other := range []NodeID{0, 63, 64, 65, 128, 255} {
			if other != n && v.Has(other) {
				t.Fatalf("Set(%d): spurious Has(%d)", n, other)
			}
		}
	}
	// A 65-node machine's full sharer set: the first wide case.
	var v Vector
	for n := NodeID(0); n < 65; n++ {
		v = v.Set(n)
	}
	if v.Count() != 65 {
		t.Fatalf("65-node full map Count = %d", v.Count())
	}
	if v.Clear(64).Count() != 64 || v.Clear(0).Lowest() != 1 {
		t.Fatal("65-node Clear/Lowest across the word boundary broken")
	}
	if (Vector{}).Lowest() != MaxNodes {
		t.Fatalf("empty Lowest = %d, want MaxNodes=%d", (Vector{}).Lowest(), MaxNodes)
	}
}

// TestVectorReferenceModel drives a long random op sequence against a
// map[NodeID]bool reference model and checks every accessor after every
// step, across the full 256-node range (weighted toward the word
// boundaries where the multi-word arithmetic can go wrong).
func TestVectorReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pick := func() NodeID {
		if rng.Intn(4) == 0 { // boundary bias
			edges := []NodeID{0, 63, 64, 65, 127, 128, 129, 191, 192, 255}
			return edges[rng.Intn(len(edges))]
		}
		return NodeID(rng.Intn(MaxNodes))
	}
	var v Vector
	ref := map[NodeID]bool{}
	for step := 0; step < 20000; step++ {
		n := pick()
		switch rng.Intn(5) {
		case 0, 1:
			v = v.Set(n)
			ref[n] = true
		case 2:
			v = v.Clear(n)
			delete(ref, n)
		case 3:
			v = v.ClearLowest()
			low := NodeID(MaxNodes)
			for m := range ref {
				if m < low {
					low = m
				}
			}
			if low < MaxNodes {
				delete(ref, low)
			}
		case 4:
			w := Vector{}.Set(pick()).Set(pick())
			if rng.Intn(2) == 0 {
				v = v.Or(w)
				for _, m := range w.Nodes() {
					ref[m] = true
				}
			} else {
				v = v.AndNot(w)
				for _, m := range w.Nodes() {
					delete(ref, m)
				}
			}
		}

		if v.Count() != len(ref) {
			t.Fatalf("step %d: Count = %d, ref %d", step, v.Count(), len(ref))
		}
		if v.Empty() != (len(ref) == 0) {
			t.Fatalf("step %d: Empty = %v, ref %d members", step, v.Empty(), len(ref))
		}
		if v.Has(n) != ref[n] {
			t.Fatalf("step %d: Has(%d) = %v, ref %v", step, n, v.Has(n), ref[n])
		}
		low := NodeID(MaxNodes)
		for m := range ref {
			if m < low {
				low = m
			}
		}
		if v.Lowest() != low {
			t.Fatalf("step %d: Lowest = %d, ref %d", step, v.Lowest(), low)
		}
		if step%97 == 0 { // full-membership scan, amortized
			nodes := v.Nodes()
			if len(nodes) != len(ref) {
				t.Fatalf("step %d: Nodes len %d, ref %d", step, len(nodes), len(ref))
			}
			for i, m := range nodes {
				if !ref[m] {
					t.Fatalf("step %d: Nodes contains %d not in ref", step, m)
				}
				if i > 0 && nodes[i-1] >= m {
					t.Fatalf("step %d: Nodes not ascending: %v", step, nodes)
				}
			}
			n, err := v.Single()
			if (err == nil) != (len(ref) == 1) {
				t.Fatalf("step %d: Single err=%v with %d members", step, err, len(ref))
			}
			if err == nil && !ref[n] {
				t.Fatalf("step %d: Single = %d not in ref", step, n)
			}
		}
	}
}

// Property: Count always equals the length of Nodes, and every node in
// Nodes satisfies Has.
func TestPropertyVectorConsistency(t *testing.T) {
	f := func(words [VectorWords]uint64) bool {
		v := Vector(words)
		nodes := v.Nodes()
		if len(nodes) != v.Count() {
			return false
		}
		for _, n := range nodes {
			if !v.Has(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Set then Clear is identity for nodes not previously present.
func TestPropertySetClearIdentity(t *testing.T) {
	f := func(words [VectorWords]uint64, n uint8) bool {
		node := NodeID(int(n) % MaxNodes)
		v := Vector(words)
		if v.Has(node) {
			return v.Set(node) == v
		}
		return v.Set(node).Clear(node) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMessageSize pins the pooled message at 88 bytes: two-byte node ids
// and the small fields packed ahead of the 8-byte ones. Every emit copies
// one.
func TestMessageSize(t *testing.T) {
	if n := unsafe.Sizeof(Message{}); n > 88 {
		t.Fatalf("Message is %d bytes, want <= 88", n)
	}
}

func TestMessageBytes(t *testing.T) {
	data := &Message{Type: SharedReply}
	if data.Bytes() != HeaderBytes+LineBytes {
		t.Fatalf("data message bytes = %d, want %d", data.Bytes(), HeaderBytes+LineBytes)
	}
	ctrl := &Message{Type: Invalidate}
	if ctrl.Bytes() != HeaderBytes {
		t.Fatalf("control message bytes = %d, want %d", ctrl.Bytes(), HeaderBytes)
	}
}

func TestCarriesDataClasses(t *testing.T) {
	wantData := []Type{SharedReply, ExclReply, SharedResponse, ExclResponse,
		SharedWriteback, Writeback, Update, Delegate, Undelegate}
	for _, ty := range wantData {
		if !ty.CarriesData() {
			t.Errorf("%v should carry data", ty)
		}
	}
	wantCtrl := []Type{GetShared, GetExcl, Upgrade, Invalidate, InvAck, Nack,
		NackNotHome, NewHomeHint, UpdateAck, UndelegateAck, TransferAck, WBAck,
		Intervention, TransferReq, UpgradeAck}
	for _, ty := range wantCtrl {
		if ty.CarriesData() {
			t.Errorf("%v should not carry data", ty)
		}
	}
}

func TestIsRequest(t *testing.T) {
	for _, ty := range []Type{GetShared, GetExcl, Upgrade} {
		if !ty.IsRequest() {
			t.Errorf("%v should be a request", ty)
		}
	}
	for _, ty := range []Type{SharedReply, Invalidate, Update, Writeback} {
		if ty.IsRequest() {
			t.Errorf("%v should not be a request", ty)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	for ty := Type(0); int(ty) < NumTypes; ty++ {
		s := ty.String()
		if s == "" {
			t.Fatalf("type %d has empty name", ty)
		}
	}
	if Type(200).String() != "Type(200)" {
		t.Fatalf("out-of-range string = %q", Type(200).String())
	}
}

func TestMessageString(t *testing.T) {
	m := &Message{Type: GetShared, Src: 1, Dst: 2, Addr: 0x1000}
	if m.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestNotSingletonErrorPaths pins every way Single can reject a vector —
// empty, two bits in one word, one bit in each of two words (the
// cross-word n != None branch), and multi-bit words beyond word 0 where
// the fast scan never looks — plus the error text operators grep for.
func TestNotSingletonErrorPaths(t *testing.T) {
	cases := []struct {
		v       Vector
		members int
	}{
		{Vector{}, 0},
		{Vector{}.Set(1).Set(2), 2},              // two bits, word 0
		{Vector{}.Set(70).Set(71), 2},            // two bits, word 1 only
		{Vector{}.Set(1).Set(130), 2},            // one bit per word, cross-word
		{Vector{}.Set(63).Set(64).Set(200), 3},   // straddles three words
		{Vector{}.Set(192).Set(193).Set(255), 3}, // all in the last word
	}
	for _, tc := range cases {
		n, err := tc.v.Single()
		if err == nil {
			t.Fatalf("Single(%v) = %d, nil; want *NotSingletonError", tc.v, n)
		}
		var nse *NotSingletonError
		if !errors.As(err, &nse) {
			t.Fatalf("Single(%v) error %T, want *NotSingletonError", tc.v, err)
		}
		if nse.V != tc.v {
			t.Fatalf("error carries vector %v, want %v", nse.V, tc.v)
		}
		if got := nse.V.Count(); got != tc.members {
			t.Fatalf("error vector %v has %d members, want %d", nse.V, got, tc.members)
		}
		msg := err.Error()
		for _, frag := range []string{
			fmt.Sprintf("has %d members", tc.members),
			"want exactly one",
			fmt.Sprint(tc.v.Nodes()),
		} {
			if !strings.Contains(msg, frag) {
				t.Fatalf("error %q missing %q", msg, frag)
			}
		}
		// A wrapped chain still exposes the typed error.
		wrapped := fmt.Errorf("directory corrupt: %w", err)
		nse = nil
		if !errors.As(wrapped, &nse) || nse.V != tc.v {
			t.Fatalf("errors.As through a wrap lost the typed error for %v", tc.v)
		}
	}
}

// TestVectorOnlySlowPathPanic covers Only's non-fast path: a member
// outside word 0 skips the single-word fast return and must still
// resolve via Single — and a multi-word violation must panic with the
// call-site context.
func TestVectorOnlySlowPathPanic(t *testing.T) {
	if got := (Vector{}.Set(200)).Only("upper word"); got != 200 {
		t.Fatalf("Only on upper-word singleton = %d, want 200", got)
	}
	defer func() {
		s, ok := recover().(string)
		if !ok {
			t.Fatalf("recover() = %T, want string panic", s)
		}
		for _, frag := range []string{"slow path site", "2 members"} {
			if !strings.Contains(s, frag) {
				t.Fatalf("panic %q missing %q", s, frag)
			}
		}
	}()
	Vector{}.Set(70).Set(200).Only("slow path site")
}
