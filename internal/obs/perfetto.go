package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"pccsim/internal/msg"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
)

// Perfetto export: the Chrome trace_event JSON format, readable by
// https://ui.perfetto.dev and chrome://tracing. The document carries two
// processes: "nodes" (one track per hub: message sends, miss spans, MSHR
// occupancy counters) and "lines" (one track per cache line: delegation
// spans with their §2.3.3 cause, update pushes and their fate).
//
// Timestamps are simulated processor cycles written into the format's
// microsecond field — absolute values are exact, only the unit label in
// the UI reads "us" instead of "cycles".

const (
	pidNodes = 1
	pidLines = 2
)

// traceEvent is one record of the trace_event format.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WritePerfetto renders the sink's retained events and complete metrics
// as a trace_event JSON document. Instant-level detail (message sends,
// miss spans, MSHR counters) comes from the event ring and covers its
// retention window; delegation spans come from the live metrics and are
// complete for the whole run even if the ring wrapped.
func WritePerfetto(w io.Writer, s *Sink) error {
	events := s.Events()
	m := &s.M

	var out []traceEvent
	emit := func(e traceEvent) { out = append(out, e) }

	// Process/track names.
	emit(traceEvent{Name: "process_name", Ph: "M", Pid: pidNodes,
		Args: map[string]any{"name": "protocol nodes"}})
	emit(traceEvent{Name: "process_name", Ph: "M", Pid: pidLines,
		Args: map[string]any{"name": "cache lines"}})

	nodes := map[int]bool{}
	noteNode := func(n msg.NodeID) {
		if int(n) >= 0 {
			nodes[int(n)] = true
		}
	}
	for i := range events {
		noteNode(events[i].Node)
	}

	// One track per cache line that has lifecycle activity, ordered by
	// address so the layout is deterministic.
	lineTid := map[msg.Addr]int{}
	var lineAddrs []msg.Addr
	for addr := range m.Lines {
		lineAddrs = append(lineAddrs, addr)
	}
	for i := range events {
		if events[i].Kind != KindSend && events[i].Kind != KindMissStart &&
			events[i].Kind != KindMissEnd {
			if _, ok := m.Lines[events[i].Addr]; !ok {
				if _, seen := lineTid[events[i].Addr]; !seen {
					lineTid[events[i].Addr] = 0 // placeholder; assigned below
					lineAddrs = append(lineAddrs, events[i].Addr)
				}
			}
		}
	}
	sort.Slice(lineAddrs, func(i, j int) bool { return lineAddrs[i] < lineAddrs[j] })
	for i, addr := range lineAddrs {
		lineTid[addr] = i
		emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pidLines, Tid: i,
			Args: map[string]any{"name": fmt.Sprintf("line %#x", uint64(addr))}})
	}

	var lastTs sim.Time
	for i := range events {
		if events[i].At > lastTs {
			lastTs = events[i].At
		}
	}

	// Node tracks: sends as instants, misses as spans, MSHR counters.
	type missKey struct {
		node msg.NodeID
		addr msg.Addr
	}
	missStart := map[missKey]sim.Time{}
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case KindSend:
			emit(traceEvent{
				Name: e.Msg.Type.String(), Cat: "msg", Ph: "i", S: "t",
				Ts: uint64(e.At), Pid: pidNodes, Tid: int(e.Node),
				Args: map[string]any{
					"addr": fmt.Sprintf("%#x", uint64(e.Addr)),
					"dst":  int(e.Msg.Dst), "bytes": e.Bytes, "hops": e.Hops,
					"v": e.Msg.Version,
				},
			})
		case KindMissStart:
			missStart[missKey{e.Node, e.Addr}] = e.At
			emit(traceEvent{
				Name: "mshr", Ph: "C", Ts: uint64(e.At), Pid: pidNodes, Tid: int(e.Node),
				Args: map[string]any{fmt.Sprintf("node %d outstanding", int(e.Node)): e.Arg},
			})
		case KindMissEnd:
			k := missKey{e.Node, e.Addr}
			if start, ok := missStart[k]; ok {
				delete(missStart, k)
				emit(traceEvent{
					Name: fmt.Sprintf("miss %#x", uint64(e.Addr)),
					Cat:  "miss", Ph: "X", Ts: uint64(start), Dur: uint64(e.At - start),
					Pid: pidNodes, Tid: int(e.Node),
					Args: map[string]any{"class": stats.MissClass(e.Arg2).String()},
				})
			}
			emit(traceEvent{
				Name: "mshr", Ph: "C", Ts: uint64(e.At), Pid: pidNodes, Tid: int(e.Node),
				Args: map[string]any{fmt.Sprintf("node %d outstanding", int(e.Node)): e.Arg},
			})
		default:
			// Lifecycle events land on the line track as instants.
			name := e.Kind.String()
			args := map[string]any{"node": int(e.Node)}
			switch e.Kind {
			case KindUndelegate:
				args["cause"] = stats.UndelegateReason(e.Arg).String()
			case KindUpdatePush:
				args["consumer"] = int(e.Arg)
				args["v"] = e.Arg2
			case KindIntervention:
				args["flavour"] = [...]string{"demand", "delayed", "early-read"}[min(int(e.Arg2), 2)]
			}
			emit(traceEvent{
				Name: name, Cat: "lifecycle", Ph: "i", S: "t",
				Ts: uint64(e.At), Pid: pidLines, Tid: lineTid[e.Addr], Args: args,
			})
		}
	}
	// Misses still outstanding at the end of the window render as spans
	// clamped to the last timestamp.
	for k, start := range missStart {
		emit(traceEvent{
			Name: fmt.Sprintf("miss %#x", uint64(k.addr)),
			Cat:  "miss", Ph: "X", Ts: uint64(start), Dur: uint64(lastTs - start),
			Pid: pidNodes, Tid: int(k.node),
			Args: map[string]any{"class": "unresolved"},
		})
	}

	// Delegation spans from the metrics: complete for the whole run.
	for _, addr := range lineAddrs {
		l := m.Lines[addr]
		if l == nil {
			continue
		}
		for i := range l.Spans {
			sp := &l.Spans[i]
			end := lastTs
			cause := "still-delegated"
			if sp.Undelegated {
				end = sp.UndelegatedAt
				cause = sp.Cause.String()
			}
			args := map[string]any{"producer": int(sp.Producer), "cause": cause}
			if sp.Installed {
				args["installed_at"] = uint64(sp.InstalledAt)
			}
			if sp.Committed {
				args["committed_at"] = uint64(sp.CommittedAt)
			}
			emit(traceEvent{
				Name: fmt.Sprintf("delegated to n%d", int(sp.Producer)),
				Cat:  "delegation", Ph: "X",
				Ts: uint64(sp.DetectedAt), Dur: uint64(end - sp.DetectedAt),
				Pid: pidLines, Tid: lineTid[addr], Args: args,
			})
		}
	}

	// Sorted, not map order: the golden tests pin the document bytes.
	var nodeIDs []int
	for n := range nodes {
		nodeIDs = append(nodeIDs, n)
	}
	sort.Ints(nodeIDs)
	for _, n := range nodeIDs {
		emit(traceEvent{Name: "thread_name", Ph: "M", Pid: pidNodes, Tid: n,
			Args: map[string]any{"name": fmt.Sprintf("node %d", n)}})
	}

	doc := struct {
		TraceEvents []traceEvent   `json:"traceEvents"`
		Metadata    map[string]any `json:"metadata"`
	}{
		TraceEvents: out,
		Metadata:    metadata(m),
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// metadata summarizes the run's per-class traffic so a trace file is
// self-describing (and cross-checkable against stats.Stats).
func metadata(m *Metrics) map[string]any {
	count := map[string]uint64{}
	bytes := map[string]uint64{}
	for t := 0; t < msg.NumTypes; t++ {
		if m.MsgCount[t] > 0 {
			count[msg.Type(t).String()] = m.MsgCount[t]
			bytes[msg.Type(t).String()] = m.MsgBytes[t]
		}
	}
	return map[string]any{
		"events":               m.Events,
		"msg_count":            count,
		"msg_bytes":            bytes,
		"total_messages":       m.TotalMessages(),
		"total_bytes":          m.TotalBytes(),
		"avg_hops":             m.AvgHops(),
		"delegations":          m.Delegations,
		"complete_delegations": m.CompleteDelegations(),
		"update_accuracy":      m.UpdateAccuracy(),
		"mshr_peak":            m.MSHRPeak,
	}
}
