package obs

import (
	"fmt"
	"io"
	"sort"

	"pccsim/internal/msg"
	"pccsim/internal/sim"
)

// The plain-text debugging views protocol architects read: a raw
// coherence-message timeline and per-line protocol stories (requests,
// interventions, delegations and update pushes). Both render the
// KindSend events of an event window and skip every other kind.

// DumpTimeline writes one line per message send, in event order.
func DumpTimeline(w io.Writer, events []Event) {
	for i := range events {
		if e := &events[i]; e.Kind == KindSend {
			fmt.Fprintf(w, "[%10d] %s\n", uint64(e.At), describe(&e.Msg))
		}
	}
}

// describe renders one message in protocol-story form.
func describe(m *msg.Message) string {
	base := fmt.Sprintf("%-15s %2d -> %-2d line %#x", m.Type, m.Src, m.Dst, uint64(m.Addr))
	switch m.Type {
	case msg.ExclReply, msg.UpgradeAck, msg.Delegate:
		return fmt.Sprintf("%s  (acks=%d v=%d)", base, m.AckCount, m.Version)
	case msg.SharedReply, msg.SharedResponse, msg.ExclResponse, msg.Update,
		msg.SharedWriteback, msg.Writeback, msg.Undelegate:
		return fmt.Sprintf("%s  (v=%d)", base, m.Version)
	case msg.Intervention, msg.TransferReq:
		return fmt.Sprintf("%s  (for node %d, epoch %d)", base, m.Requester, m.GrantTxn)
	case msg.Invalidate, msg.InvAck:
		return fmt.Sprintf("%s  (for node %d)", base, m.Requester)
	case msg.NewHomeHint:
		return fmt.Sprintf("%s  (new home %d)", base, m.Owner)
	}
	return base
}

// LineStory summarizes one line's messages: counts by message type plus
// the delegation timeline.
type LineStory struct {
	Addr        msg.Addr
	First, Last sim.Time
	Counts      map[msg.Type]int
	Delegations []sim.Time
	Undeleg     []sim.Time
}

// Stories groups the message sends per line, most active lines first.
func Stories(events []Event) []*LineStory {
	byLine := make(map[msg.Addr]*LineStory)
	for i := range events {
		e := &events[i]
		if e.Kind != KindSend {
			continue
		}
		st := byLine[e.Msg.Addr]
		if st == nil {
			st = &LineStory{Addr: e.Msg.Addr, First: e.At, Counts: make(map[msg.Type]int)}
			byLine[e.Msg.Addr] = st
		}
		st.Last = e.At
		st.Counts[e.Msg.Type]++
		switch e.Msg.Type {
		case msg.Delegate:
			st.Delegations = append(st.Delegations, e.At)
		case msg.Undelegate:
			st.Undeleg = append(st.Undeleg, e.At)
		}
	}
	out := make([]*LineStory, 0, len(byLine))
	for _, st := range byLine {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		ni, nj := out[i].total(), out[j].total()
		if ni != nj {
			return ni > nj
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

func (s *LineStory) total() int {
	n := 0
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// DumpStories writes the per-line summaries of Stories.
func DumpStories(w io.Writer, events []Event) {
	for _, st := range Stories(events) {
		fmt.Fprintf(w, "line %#x: %d msgs over [%d..%d]", uint64(st.Addr), st.total(), uint64(st.First), uint64(st.Last))
		if len(st.Delegations) > 0 {
			fmt.Fprintf(w, ", delegated %dx", len(st.Delegations))
		}
		if len(st.Undeleg) > 0 {
			fmt.Fprintf(w, ", undelegated %dx", len(st.Undeleg))
		}
		fmt.Fprintln(w)
		// Stable type order for readability.
		var types []msg.Type
		for t := range st.Counts {
			types = append(types, t)
		}
		sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
		for _, t := range types {
			fmt.Fprintf(w, "    %-16s %d\n", t, st.Counts[t])
		}
	}
}
