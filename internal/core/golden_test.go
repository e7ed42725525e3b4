package core

import (
	"fmt"
	"strings"
	"testing"

	"pccsim/internal/msg"
	"pccsim/internal/obs"
)

// TestGoldenTranscript locks the protocol's canonical message sequence for
// the producer-consumer scenario: any change to routing, message types, or
// the adaptation points shows up as a transcript diff. (Timing is omitted
// so latency tuning does not churn the golden text; ordering is exact
// because the simulator is deterministic.)
func TestGoldenTranscript(t *testing.T) {
	cfg := testConfig().With(WithRAC(32), WithDelegation(32), WithSpeculativeUpdates(0))
	cfg.Nodes = 4
	sys := newTestSystem(t, cfg)
	var log []string
	sink := obs.NewSink(0)
	sink.Tap = func(e obs.Event) {
		if e.Kind == obs.KindSend {
			log = append(log, fmt.Sprintf("%s %d->%d", e.Msg.Type, e.Msg.Src, e.Msg.Dst))
		}
	}
	sys.AttachObs(sink)
	addr := msg.Addr(0x4000)
	access(t, sys, 3, addr, false) // home = 3
	for round := 0; round < 4; round++ {
		access(t, sys, 0, addr, true)
		access(t, sys, 1, addr, false)
		access(t, sys, 2, addr, false)
	}

	got := strings.Join(log, "\n")
	// Note two subtleties the transcript pins down: the home's
	// invalidation of its own copy travels the hub-internal crossbar
	// (not the network), so only its InvAck appears; and the DELEGATE
	// departs after the invalidation acks because it pays the DRAM
	// access for the data it carries.
	want := strings.TrimSpace(`
GetExcl 0->3
InvAck 3->0
ExclReply 3->0
GetShared 1->3
Intervention 3->0
SharedResponse 0->1
SharedWriteback 0->3
GetShared 2->3
SharedReply 3->2
Upgrade 0->3
Invalidate 3->1
Invalidate 3->2
UpgradeAck 3->0
InvAck 1->0
InvAck 2->0
GetShared 1->3
Intervention 3->0
SharedResponse 0->1
SharedWriteback 0->3
GetShared 2->3
SharedReply 3->2
Upgrade 0->3
Invalidate 3->1
Invalidate 3->2
UpgradeAck 3->0
InvAck 1->0
InvAck 2->0
GetShared 1->3
Intervention 3->0
SharedResponse 0->1
SharedWriteback 0->3
GetShared 2->3
SharedReply 3->2
Upgrade 0->3
Invalidate 3->1
Invalidate 3->2
InvAck 1->0
InvAck 2->0
Delegate 3->0
Update 0->1
Update 0->2
`)
	if got != want {
		t.Fatalf("protocol transcript changed:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
