// Package stats collects the counters the paper's evaluation reports:
// execution cycles, remote misses broken down by how many network hops they
// needed, interconnect messages and bytes by type, NACKs, delegation and
// speculative-update activity, and the consumer-count distribution of
// Table 3.
package stats

import (
	"fmt"
	"io"
	"sort"

	"pccsim/internal/msg"
)

// MissClass classifies how a processor-visible L2 miss was satisfied.
type MissClass uint8

const (
	// MissLocalRAC: satisfied by the node's own remote access cache
	// (a speculative update landed in time) — the "0-hop" miss the
	// paper's update mechanism creates.
	MissLocalRAC MissClass = iota
	// MissLocalHome: satisfied by local memory (the line's home is this
	// node and no remote owner intervened).
	MissLocalHome
	// MissRemote2Hop: requester -> home (or delegated home) -> requester.
	MissRemote2Hop
	// MissRemote3Hop: requester -> home -> owner -> requester.
	MissRemote3Hop
	numMissClasses
)

var missClassNames = [...]string{
	MissLocalRAC:   "local-RAC",
	MissLocalHome:  "local-home",
	MissRemote2Hop: "remote-2hop",
	MissRemote3Hop: "remote-3hop",
}

func (c MissClass) String() string { return missClassNames[c] }

// UndelegateReason enumerates the three undelegation causes of §2.3.3.
type UndelegateReason uint8

const (
	// UndelCapacity: the producer table ran out of space.
	UndelCapacity UndelegateReason = iota
	// UndelFlush: the producer lost its local copy (RAC pin dropped).
	UndelFlush
	// UndelRemoteWrite: another node requested exclusive ownership.
	UndelRemoteWrite
	numUndelReasons
)

var undelReasonNames = [...]string{
	UndelCapacity:    "capacity",
	UndelFlush:       "flush",
	UndelRemoteWrite: "remote-write",
}

func (r UndelegateReason) String() string { return undelReasonNames[r] }

// NumMissClasses and NumUndelegateReasons export the enum sizes for
// layers that index arrays by them (internal/obs).
const (
	NumMissClasses       = int(numMissClasses)
	NumUndelegateReasons = int(numUndelReasons)
)

// Stats aggregates every counter for one simulation run. The zero value is
// ready to use.
type Stats struct {
	// Execution.
	ExecCycles uint64 // parallel-phase cycles (max over nodes)
	Loads      uint64
	Stores     uint64
	Barriers   uint64

	// Cache behaviour.
	L1Hits  uint64
	L2Hits  uint64
	Misses  [numMissClasses]uint64
	RACHits uint64 // RAC hits that satisfied an L2 miss (== Misses[MissLocalRAC] plus victim-cache hits)

	// Interconnect.
	MsgCount [msg.NumTypes]uint64
	MsgBytes [msg.NumTypes]uint64
	HopSum   uint64 // total network hops over all packets (0 for node-local)

	// Protocol events.
	Retries        uint64 // request retries after a NACK
	Interventions  uint64
	Invalidations  uint64
	Delegations    uint64
	Undelegations  [numUndelReasons]uint64
	UpdatesSent    uint64
	UpdatesUseful  uint64 // consumed by a read (RAC hit or matched an outstanding miss)
	UpdatesWasted  uint64 // overwritten or evicted before any read
	PCLinesMarked  uint64 // lines the detector flagged producer-consumer
	DirCacheEvicts uint64
	SelfDowngrades uint64 // eager downgrades under dynamic self-invalidation

	// ConsumerDist histograms the sharer count seen at each producer
	// write to a detected producer-consumer line (Table 3): index 0 =
	// one consumer, ... index 4 = more than four consumers.
	ConsumerDist [5]uint64
}

// New returns an empty Stats.
func New() *Stats { return &Stats{} }

// RecordMsg accounts one message on the wire.
func (s *Stats) RecordMsg(m *msg.Message) {
	s.MsgCount[m.Type]++
	s.MsgBytes[m.Type] += uint64(m.Bytes())
}

// RecordHops accounts the network distance one packet travelled.
func (s *Stats) RecordHops(n int) { s.HopSum += uint64(n) }

// RecordMiss accounts a satisfied L2 miss.
func (s *Stats) RecordMiss(c MissClass) { s.Misses[c]++ }

// RecordConsumers buckets the consumer count of one producer write interval.
func (s *Stats) RecordConsumers(n int) {
	switch {
	case n <= 0:
		return
	case n >= 5:
		s.ConsumerDist[4]++
	default:
		s.ConsumerDist[n-1]++
	}
}

// RecordUndelegation accounts one undelegation by cause.
func (s *Stats) RecordUndelegation(r UndelegateReason) { s.Undelegations[r]++ }

// RemoteMisses is the total number of misses that required network traffic.
func (s *Stats) RemoteMisses() uint64 {
	return s.Misses[MissRemote2Hop] + s.Misses[MissRemote3Hop]
}

// LocalMisses is the number of L2 misses satisfied without remote traffic.
func (s *Stats) LocalMisses() uint64 {
	return s.Misses[MissLocalRAC] + s.Misses[MissLocalHome]
}

// TotalMisses is all L2 misses.
func (s *Stats) TotalMisses() uint64 { return s.RemoteMisses() + s.LocalMisses() }

// RACMisses counts L2 misses satisfied by the local RAC (0 network hops).
func (s *Stats) RACMisses() uint64 { return s.Misses[MissLocalRAC] }

// LocalHomeMisses counts L2 misses satisfied from local memory.
func (s *Stats) LocalHomeMisses() uint64 { return s.Misses[MissLocalHome] }

// Remote2HopMisses counts requester-home-requester misses.
func (s *Stats) Remote2HopMisses() uint64 { return s.Misses[MissRemote2Hop] }

// Remote3HopMisses counts misses forwarded through a third-party owner.
func (s *Stats) Remote3HopMisses() uint64 { return s.Misses[MissRemote3Hop] }

// TotalMessages is the total number of packets injected into the network.
func (s *Stats) TotalMessages() uint64 {
	var t uint64
	for _, c := range s.MsgCount {
		t += c
	}
	return t
}

// TotalBytes is the total wire traffic in bytes.
func (s *Stats) TotalBytes() uint64 {
	var t uint64
	for _, b := range s.MsgBytes {
		t += b
	}
	return t
}

// AvgHops is the mean network distance per packet (node-local packets
// count as zero hops).
func (s *Stats) AvgHops() float64 {
	if t := s.TotalMessages(); t > 0 {
		return float64(s.HopSum) / float64(t)
	}
	return 0
}

// Nacks is the number of NACK packets (both flavours).
func (s *Stats) Nacks() uint64 {
	return s.MsgCount[msg.Nack] + s.MsgCount[msg.NackNotHome]
}

// TotalUndelegations sums undelegations over all causes.
func (s *Stats) TotalUndelegations() uint64 {
	var t uint64
	for _, u := range s.Undelegations {
		t += u
	}
	return t
}

// UpdateAccuracy is the fraction of speculative updates that were consumed.
func (s *Stats) UpdateAccuracy() float64 {
	if s.UpdatesSent == 0 {
		return 0
	}
	return float64(s.UpdatesUseful) / float64(s.UpdatesSent)
}

// ConsumerDistPercent returns the Table 3 row: percentage of producer-write
// intervals with 1, 2, 3, 4 and >4 consumers.
func (s *Stats) ConsumerDistPercent() [5]float64 {
	var out [5]float64
	var total uint64
	for _, c := range s.ConsumerDist {
		total += c
	}
	if total == 0 {
		return out
	}
	for i, c := range s.ConsumerDist {
		out[i] = 100 * float64(c) / float64(total)
	}
	return out
}

// Add accumulates other into s (used to aggregate per-node stats).
func (s *Stats) Add(other *Stats) {
	if other.ExecCycles > s.ExecCycles {
		s.ExecCycles = other.ExecCycles
	}
	s.Loads += other.Loads
	s.Stores += other.Stores
	s.Barriers += other.Barriers
	s.L1Hits += other.L1Hits
	s.L2Hits += other.L2Hits
	s.RACHits += other.RACHits
	for i := range s.Misses {
		s.Misses[i] += other.Misses[i]
	}
	for i := range s.MsgCount {
		s.MsgCount[i] += other.MsgCount[i]
		s.MsgBytes[i] += other.MsgBytes[i]
	}
	s.HopSum += other.HopSum
	s.Retries += other.Retries
	s.Interventions += other.Interventions
	s.Invalidations += other.Invalidations
	s.Delegations += other.Delegations
	for i := range s.Undelegations {
		s.Undelegations[i] += other.Undelegations[i]
	}
	s.UpdatesSent += other.UpdatesSent
	s.UpdatesUseful += other.UpdatesUseful
	s.UpdatesWasted += other.UpdatesWasted
	s.PCLinesMarked += other.PCLinesMarked
	s.DirCacheEvicts += other.DirCacheEvicts
	s.SelfDowngrades += other.SelfDowngrades
	for i := range s.ConsumerDist {
		s.ConsumerDist[i] += other.ConsumerDist[i]
	}
}

// Dump writes a human-readable report to w.
func (s *Stats) Dump(w io.Writer) {
	fmt.Fprintf(w, "execution cycles:      %d\n", s.ExecCycles)
	fmt.Fprintf(w, "loads / stores:        %d / %d (barriers %d)\n", s.Loads, s.Stores, s.Barriers)
	fmt.Fprintf(w, "L1 hits / L2 hits:     %d / %d\n", s.L1Hits, s.L2Hits)
	fmt.Fprintf(w, "misses:")
	for c := MissClass(0); c < numMissClasses; c++ {
		fmt.Fprintf(w, "  %s=%d", c, s.Misses[c])
	}
	fmt.Fprintf(w, "\nremote misses:         %d (local %d)\n", s.RemoteMisses(), s.LocalMisses())
	fmt.Fprintf(w, "network messages:      %d (%d bytes, %d NACKs, %d retries)\n",
		s.TotalMessages(), s.TotalBytes(), s.Nacks(), s.Retries)
	fmt.Fprintf(w, "delegations:           %d (undelegations:", s.Delegations)
	for r := UndelegateReason(0); r < numUndelReasons; r++ {
		fmt.Fprintf(w, " %s=%d", r, s.Undelegations[r])
	}
	fmt.Fprintf(w, ")\n")
	fmt.Fprintf(w, "updates sent/useful/wasted: %d/%d/%d (accuracy %.1f%%)\n",
		s.UpdatesSent, s.UpdatesUseful, s.UpdatesWasted, 100*s.UpdateAccuracy())
	if s.SelfDowngrades > 0 { // dsi only: every other report keeps its bytes
		fmt.Fprintf(w, "self-downgrades:       %d\n", s.SelfDowngrades)
	}
	dist := s.ConsumerDistPercent()
	fmt.Fprintf(w, "consumer distribution: 1:%.1f%% 2:%.1f%% 3:%.1f%% 4:%.1f%% 4+:%.1f%%\n",
		dist[0], dist[1], dist[2], dist[3], dist[4])
	// Message breakdown, sorted by count, nonzero only.
	type row struct {
		t     msg.Type
		count uint64
	}
	var rows []row
	for t, c := range s.MsgCount {
		if c > 0 {
			rows = append(rows, row{msg.Type(t), c})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].count > rows[j].count })
	for _, r := range rows {
		fmt.Fprintf(w, "  msg %-16s %10d (%d bytes)\n", r.t, r.count, s.MsgBytes[r.t])
	}
}
