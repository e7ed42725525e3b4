package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pccsim/internal/msg"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
)

func send(at uint64, t msg.Type, src, dst msg.NodeID, addr msg.Addr, hops uint8) Event {
	m := msg.Message{Type: t, Src: src, Dst: dst, Addr: addr}
	return Event{At: sim.Time(at), Kind: KindSend, Node: src, Addr: addr,
		Hops: hops, Bytes: uint32(m.Bytes()), Msg: m}
}

func TestSinkRingWrap(t *testing.T) {
	s := NewSink(4)
	for i := 0; i < 10; i++ {
		s.Emit(send(uint64(i), msg.GetShared, 0, 1, msg.Addr(i*128), 2))
	}
	if s.Total() != 10 {
		t.Fatalf("Total = %d, want 10", s.Total())
	}
	evs := s.Events()
	if len(evs) != 4 || evs[0].Addr != 6*128 || evs[3].Addr != 9*128 {
		t.Fatalf("ring kept wrong window: %+v", evs)
	}
	// Metrics must cover all ten, not just the retained window.
	if s.M.MsgCount[msg.GetShared] != 10 {
		t.Fatalf("metrics count = %d, want 10", s.M.MsgCount[msg.GetShared])
	}
}

func TestSinkCapacityModes(t *testing.T) {
	none := NewSink(0)
	none.Emit(send(1, msg.GetShared, 0, 1, 0x100, 1))
	if len(none.Events()) != 0 || none.Total() != 1 || none.M.Events != 1 {
		t.Fatalf("capacity-0 sink misbehaved: %d events, total %d", len(none.Events()), none.Total())
	}
	unbounded := NewSink(-1)
	for i := 0; i < 5000; i++ {
		unbounded.Emit(send(uint64(i), msg.GetShared, 0, 1, 0x100, 1))
	}
	if len(unbounded.Events()) != 5000 {
		t.Fatalf("unbounded sink retained %d events", len(unbounded.Events()))
	}
}

func TestTapSeesEveryEvent(t *testing.T) {
	s := NewSink(2)
	var tapped int
	s.Tap = func(e Event) { tapped++ }
	for i := 0; i < 7; i++ {
		s.Emit(send(uint64(i), msg.Update, 0, 1, 0x100, 2))
	}
	if tapped != 7 {
		t.Fatalf("tap saw %d events, want 7", tapped)
	}
}

func TestDelegationSpanPairing(t *testing.T) {
	s := NewSink(64)
	addr := msg.Addr(0x1000)
	// Two full delegations to the same producer, causes b then c.
	s.Emit(Event{At: 5, Kind: KindPCDetect, Node: 0, Addr: addr})
	s.Emit(Event{At: 10, Kind: KindDelegate, Node: 0, Addr: addr, Arg: 2})
	s.Emit(Event{At: 20, Kind: KindDelegateInstall, Node: 2, Addr: addr, Arg: 1})
	s.Emit(Event{At: 30, Kind: KindUndelegate, Node: 2, Addr: addr, Arg: uint64(stats.UndelFlush)})
	s.Emit(Event{At: 40, Kind: KindUndelegateCommit, Node: 0, Addr: addr, Arg: 2})
	s.Emit(Event{At: 50, Kind: KindDelegate, Node: 0, Addr: addr, Arg: 2})
	s.Emit(Event{At: 60, Kind: KindDelegateInstall, Node: 2, Addr: addr, Arg: 1})
	s.Emit(Event{At: 70, Kind: KindUndelegate, Node: 2, Addr: addr, Arg: uint64(stats.UndelRemoteWrite)})

	l := s.M.Lines[addr]
	if l == nil || !l.PCDetected || l.PCDetectAt != 5 {
		t.Fatalf("line timeline missing PC detection: %+v", l)
	}
	if len(l.Spans) != 2 {
		t.Fatalf("%d spans, want 2", len(l.Spans))
	}
	a, b := l.Spans[0], l.Spans[1]
	if !a.Complete() || a.Cause != stats.UndelFlush || !a.Committed || a.CommittedAt != 40 {
		t.Fatalf("span 1 wrong: %+v", a)
	}
	if !b.Complete() || b.Cause != stats.UndelRemoteWrite || b.Committed {
		t.Fatalf("span 2 wrong: %+v", b)
	}
	if s.M.CompleteDelegations() != 2 {
		t.Fatalf("CompleteDelegations = %d", s.M.CompleteDelegations())
	}
	if s.M.Undelegations[stats.UndelFlush] != 1 || s.M.Undelegations[stats.UndelRemoteWrite] != 1 {
		t.Fatalf("undelegation causes wrong: %v", s.M.Undelegations)
	}
}

func TestHopAndByteAccounting(t *testing.T) {
	s := NewSink(0)
	s.Emit(send(1, msg.GetShared, 0, 1, 0x100, 1))   // header only
	s.Emit(send(2, msg.SharedReply, 1, 0, 0x100, 1)) // carries data
	s.Emit(send(3, msg.GetShared, 0, 9, 0x200, 2))
	wantBytes := uint64(msg.HeaderBytes*2 + msg.HeaderBytes + msg.LineBytes)
	if s.M.TotalBytes() != wantBytes {
		t.Fatalf("TotalBytes = %d, want %d", s.M.TotalBytes(), wantBytes)
	}
	if s.M.HopCount[1] != 2 || s.M.HopCount[2] != 1 {
		t.Fatalf("hop histogram wrong: %v", s.M.HopCount)
	}
	if got := s.M.AvgHops(); got < 1.32 || got > 1.34 {
		t.Fatalf("AvgHops = %v, want ~4/3", got)
	}
}

func TestMSHRPeakTracking(t *testing.T) {
	s := NewSink(0)
	s.Emit(Event{At: 1, Kind: KindMissStart, Node: 0, Addr: 0x100, Arg: 1})
	s.Emit(Event{At: 2, Kind: KindMissStart, Node: 1, Addr: 0x200, Arg: 1})
	s.Emit(Event{At: 3, Kind: KindMissEnd, Node: 0, Addr: 0x100, Arg: 0, Arg2: uint64(stats.MissRemote2Hop)})
	s.Emit(Event{At: 4, Kind: KindMissEnd, Node: 1, Addr: 0x200, Arg: 0, Arg2: uint64(stats.MissRemote3Hop)})
	if s.M.MSHRPeak != 2 {
		t.Fatalf("MSHRPeak = %d, want 2", s.M.MSHRPeak)
	}
	if s.M.MissEnds[stats.MissRemote2Hop] != 1 || s.M.MissEnds[stats.MissRemote3Hop] != 1 {
		t.Fatalf("miss classes wrong: %v", s.M.MissEnds)
	}
}

// TestEmitZeroAlloc pins the enabled-path allocation claim: counter-kind
// events into a preallocated ring allocate nothing.
func TestEmitZeroAlloc(t *testing.T) {
	s := NewSink(1024)
	e := send(1, msg.GetShared, 0, 1, 0x100, 2)
	allocs := testing.AllocsPerRun(1000, func() { s.Emit(e) })
	if allocs != 0 {
		t.Fatalf("Emit allocated %v times per event", allocs)
	}
}

func TestWritePerfetto(t *testing.T) {
	s := NewSink(-1)
	addr := msg.Addr(0x2000)
	s.Emit(send(5, msg.GetExcl, 1, 0, addr, 2))
	s.Emit(Event{At: 6, Kind: KindMissStart, Node: 1, Addr: addr, Arg: 1, Arg2: 1})
	s.Emit(Event{At: 10, Kind: KindDelegate, Node: 0, Addr: addr, Arg: 1})
	s.Emit(Event{At: 20, Kind: KindDelegateInstall, Node: 1, Addr: addr, Arg: 1})
	s.Emit(Event{At: 25, Kind: KindMissEnd, Node: 1, Addr: addr, Arg: 0, Arg2: uint64(stats.MissRemote2Hop)})
	s.Emit(Event{At: 30, Kind: KindUpdatePush, Node: 1, Addr: addr, Arg: 3, Arg2: 7})
	s.Emit(Event{At: 40, Kind: KindUndelegate, Node: 1, Addr: addr, Arg: uint64(stats.UndelRemoteWrite)})

	var buf bytes.Buffer
	if err := WritePerfetto(&buf, s); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Metadata    map[string]any   `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`"delegated to n1"`, `"GetExcl"`, `"miss 0x2000"`, `"update-push"`,
		`"protocol nodes"`, `"cache lines"`, `"remote-write"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s:\n%s", want, out)
		}
	}
	md := doc.Metadata
	if md["total_bytes"].(float64) != float64(msg.HeaderBytes) {
		t.Fatalf("metadata total_bytes = %v", md["total_bytes"])
	}
	if md["delegations"].(float64) != 1 {
		t.Fatalf("metadata delegations = %v", md["delegations"])
	}
}

func BenchmarkEmitSend(b *testing.B) {
	s := NewSink(4096)
	e := send(1, msg.GetShared, 0, 1, 0x100, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Emit(e)
	}
}
