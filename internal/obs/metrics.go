package obs

import (
	"pccsim/internal/msg"
	"pccsim/internal/sim"
	"pccsim/internal/stats"
)

// Metrics aggregates every event a sink has seen. Counters are updated
// live on each Emit, so they stay exact even after the event ring wraps;
// the per-line timelines cover the delegation and update lifecycle only
// (rare events), never per-message state.
type Metrics struct {
	// Events counts every emitted event; ByKind breaks them down.
	Events uint64
	ByKind [NumKinds]uint64

	// Per-message-class traffic accounting, mirroring stats.Stats but
	// derived independently from KindSend events (the two must agree;
	// tests and `pccsim trace` cross-check them).
	MsgCount [msg.NumTypes]uint64
	MsgBytes [msg.NumTypes]uint64

	// Hop accounting: packets and bytes by fat-tree route length
	// (index 1 = same leaf router, 2 = across the root, 0 = a self-send
	// that reached the network; see KindSend).
	HopCount [3]uint64
	HopBytes [3]uint64

	// Miss transactions: starts, ends by stats.MissClass, and the peak
	// number outstanding across all nodes at once.
	MissStarts  uint64
	MissEnds    [stats.NumMissClasses]uint64
	MSHRPeak    uint64
	outstanding uint64

	// Delegation lifecycle (§2.3) and speculative updates (§2.4).
	PCDetects         uint64
	Delegations       uint64
	DelegateInstalls  uint64
	Undelegations     [stats.NumUndelegateReasons]uint64
	UndelegateCommits uint64
	// Interventions by flavour: [0] demand 3-hop at the home, [1] the
	// delayed intervention fired, [2] early consumer read at the
	// delegated home.
	Interventions [3]uint64
	UpdatesPushed uint64
	UpdateHits    uint64
	UpdateWastes  uint64

	// Lines holds the per-line timelines, keyed by line address.
	Lines map[msg.Addr]*Line
}

// Line is the observed lifecycle of one cache line.
type Line struct {
	Addr msg.Addr
	// PCDetected records the first time the home's detector classified
	// the line producer-consumer.
	PCDetected bool
	PCDetectAt sim.Time
	// Spans is the delegation history in time order.
	Spans []Span
	// Speculative-update outcomes for this line.
	Pushes, Hits, Wastes uint64
}

// Span is one delegation: home detect -> DELE install at the producer ->
// undelegate (with its §2.3.3 cause) -> commit back at the home. The
// *At fields are valid when the corresponding flag is set; a span whose
// Undelegated flag is clear was still delegated when the run ended.
type Span struct {
	Producer msg.NodeID

	Detected   bool
	DetectedAt sim.Time

	Installed   bool
	InstalledAt sim.Time

	Undelegated   bool
	UndelegatedAt sim.Time
	Cause         stats.UndelegateReason

	Committed   bool
	CommittedAt sim.Time
}

// Complete reports whether the span covers the full
// detect -> DELE -> undelegate sequence.
func (s *Span) Complete() bool { return s.Detected && s.Installed && s.Undelegated }

func (m *Metrics) init() {
	m.Lines = make(map[msg.Addr]*Line)
}

// line returns (allocating if needed) the timeline for addr.
func (m *Metrics) line(addr msg.Addr) *Line {
	l := m.Lines[addr]
	if l == nil {
		l = &Line{Addr: addr}
		m.Lines[addr] = l
	}
	return l
}

// observe folds one event into the aggregates.
func (m *Metrics) observe(e *Event) {
	m.Events++
	m.ByKind[e.Kind]++
	switch e.Kind {
	case KindSend:
		m.MsgCount[e.Msg.Type]++
		m.MsgBytes[e.Msg.Type] += uint64(e.Bytes)
		if int(e.Hops) < len(m.HopCount) {
			m.HopCount[e.Hops]++
			m.HopBytes[e.Hops] += uint64(e.Bytes)
		}
	case KindMissStart:
		m.MissStarts++
		m.outstanding++
		if m.outstanding > m.MSHRPeak {
			m.MSHRPeak = m.outstanding
		}
	case KindMissEnd:
		if int(e.Arg2) < len(m.MissEnds) {
			m.MissEnds[e.Arg2]++
		}
		if m.outstanding > 0 {
			m.outstanding--
		}
	case KindPCDetect:
		m.PCDetects++
		l := m.line(e.Addr)
		if !l.PCDetected {
			l.PCDetected = true
			l.PCDetectAt = e.At
		}
	case KindDelegate:
		m.Delegations++
		l := m.line(e.Addr)
		l.Spans = append(l.Spans, Span{
			Producer: msg.NodeID(e.Arg), Detected: true, DetectedAt: e.At,
		})
	case KindDelegateInstall:
		m.DelegateInstalls++
		if s := m.openSpan(e.Addr, e.Node, func(s *Span) bool { return !s.Installed }); s != nil {
			s.Installed = true
			s.InstalledAt = e.At
		}
	case KindUndelegate:
		if int(e.Arg) < len(m.Undelegations) {
			m.Undelegations[e.Arg]++
		}
		if s := m.openSpan(e.Addr, e.Node, func(s *Span) bool { return !s.Undelegated }); s != nil {
			s.Undelegated = true
			s.UndelegatedAt = e.At
			s.Cause = stats.UndelegateReason(e.Arg)
		}
	case KindUndelegateCommit:
		m.UndelegateCommits++
		if s := m.openSpan(e.Addr, msg.NodeID(e.Arg), func(s *Span) bool { return !s.Committed }); s != nil {
			s.Committed = true
			s.CommittedAt = e.At
		}
	case KindIntervention:
		if int(e.Arg2) < len(m.Interventions) {
			m.Interventions[e.Arg2]++
		}
	case KindUpdatePush:
		m.UpdatesPushed++
		m.line(e.Addr).Pushes++
	case KindUpdateHit:
		m.UpdateHits++
		m.line(e.Addr).Hits++
	case KindUpdateWaste:
		m.UpdateWastes++
		m.line(e.Addr).Wastes++
	}
}

// openSpan finds the earliest span for (addr, producer) still matching
// open, so lifecycle stages attach to their own delegation even when a
// line is re-delegated to the same producer.
func (m *Metrics) openSpan(addr msg.Addr, producer msg.NodeID, open func(*Span) bool) *Span {
	l := m.Lines[addr]
	if l == nil {
		return nil
	}
	for i := range l.Spans {
		if l.Spans[i].Producer == producer && open(&l.Spans[i]) {
			return &l.Spans[i]
		}
	}
	return nil
}

// TotalMessages is the number of packets observed on the wire.
func (m *Metrics) TotalMessages() uint64 {
	var t uint64
	for _, c := range m.MsgCount {
		t += c
	}
	return t
}

// TotalBytes is the observed wire traffic in bytes.
func (m *Metrics) TotalBytes() uint64 {
	var t uint64
	for _, b := range m.MsgBytes {
		t += b
	}
	return t
}

// AvgHops is the mean fat-tree route length per packet — the traffic-cost
// view behind the paper's 3-hop-to-2-hop conversion claim.
func (m *Metrics) AvgHops() float64 {
	var hops, n uint64
	for h, c := range m.HopCount {
		hops += uint64(h) * c
		n += c
	}
	if n == 0 {
		return 0
	}
	return float64(hops) / float64(n)
}

// UpdateAccuracy is the fraction of speculative updates that were
// consumed before dying — the y-axis of the paper's §2.4 accuracy
// discussion (Fig. 9's delay sweep trades this against staleness).
func (m *Metrics) UpdateAccuracy() float64 {
	if m.UpdatesPushed == 0 {
		return 0
	}
	return float64(m.UpdateHits) / float64(m.UpdatesPushed)
}

// CompleteDelegations counts full detect -> DELE -> undelegate sequences.
func (m *Metrics) CompleteDelegations() int {
	n := 0
	for _, l := range m.Lines {
		for i := range l.Spans {
			if l.Spans[i].Complete() {
				n++
			}
		}
	}
	return n
}

// TotalUndelegations sums undelegations over the three §2.3.3 causes.
func (m *Metrics) TotalUndelegations() uint64 {
	var t uint64
	for _, u := range m.Undelegations {
		t += u
	}
	return t
}
