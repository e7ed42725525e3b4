package obs

import (
	"bytes"
	"strings"
	"testing"

	"pccsim/internal/msg"
	"pccsim/internal/sim"
)

func sendEvent(at sim.Time, t msg.Type, src, dst msg.NodeID, addr msg.Addr) Event {
	return Event{At: at, Kind: KindSend, Node: src, Addr: addr,
		Msg: msg.Message{Type: t, Src: src, Dst: dst, Addr: addr}}
}

func TestDumpTimeline(t *testing.T) {
	events := []Event{
		sendEvent(10, msg.GetShared, 1, 0, 0x100),
		{At: 15, Kind: KindMissStart, Node: 1, Addr: 0x100},
		sendEvent(20, msg.SharedReply, 0, 1, 0x100),
	}
	var buf bytes.Buffer
	DumpTimeline(&buf, events)
	want := "[        10] GetShared        1 -> 0  line 0x100\n" +
		"[        20] SharedReply      0 -> 1  line 0x100  (v=0)\n"
	if buf.String() != want {
		t.Fatalf("timeline:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestTimelineOfWrappedRing renders a sink whose ring has wrapped: the
// timeline shows the most recent window in time order.
func TestTimelineOfWrappedRing(t *testing.T) {
	s := NewSink(4)
	for i := 0; i < 10; i++ {
		s.Emit(sendEvent(sim.Time(i), msg.GetShared, 0, 1, msg.Addr(i*128)))
	}
	if s.Total() != 10 {
		t.Fatalf("Total = %d", s.Total())
	}
	var buf bytes.Buffer
	DumpTimeline(&buf, s.Events())
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("timeline has %d lines, want 4:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "[         6]") || !strings.HasPrefix(lines[3], "[         9]") {
		t.Fatalf("ring kept the wrong window:\n%s", buf.String())
	}
}

func TestStories(t *testing.T) {
	var events []Event
	// Line 0x100: busy; line 0x200: delegated once.
	for i := 0; i < 5; i++ {
		events = append(events, sendEvent(sim.Time(i), msg.GetShared, 1, 0, 0x100))
	}
	events = append(events,
		sendEvent(10, msg.Delegate, 0, 2, 0x200),
		Event{At: 12, Kind: KindDelegate, Node: 0, Addr: 0x200},
		sendEvent(20, msg.Undelegate, 2, 0, 0x200))
	stories := Stories(events)
	if len(stories) != 2 {
		t.Fatalf("%d stories, want 2", len(stories))
	}
	if stories[0].Addr != 0x100 {
		t.Fatal("stories not sorted by activity")
	}
	st := stories[1]
	if st.Addr != 0x200 || len(st.Delegations) != 1 || len(st.Undeleg) != 1 || st.total() != 2 {
		t.Fatalf("delegation timeline wrong: %+v", st)
	}
	var buf bytes.Buffer
	DumpStories(&buf, events)
	if !strings.Contains(buf.String(), "line 0x200: 2 msgs over [10..20], delegated 1x, undelegated 1x\n") {
		t.Fatalf("story dump missing delegation:\n%s", buf.String())
	}
}

func TestDescribeVariants(t *testing.T) {
	// Every message type must render without panicking.
	for ty := msg.Type(0); int(ty) < msg.NumTypes; ty++ {
		if describe(&msg.Message{Type: ty, Src: 0, Dst: 1, Addr: 0x100}) == "" {
			t.Fatalf("%v described as empty", ty)
		}
	}
}
