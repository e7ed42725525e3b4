package fault

import (
	"reflect"
	"strings"
	"testing"
)

// TestInjectorValidation rejects schedules that could silently misfire.
func TestInjectorValidation(t *testing.T) {
	if _, err := NewInjector(Config{Rules: []Rule{{Type: "NoSuchType", Delay: 10}}}); err == nil {
		t.Fatal("unknown message type accepted")
	}
	if _, err := NewInjector(Config{Rules: []Rule{{Type: "InvAck", NackEvery: 1}}}); err == nil {
		t.Fatal("NACK rule on a non-request type accepted")
	}
	if _, err := NewInjector(Config{Rules: []Rule{{Type: "GetShared", NackEvery: 2}}}); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

// TestCaseDeterminism is the acceptance gate: the same case runs to the
// same verdict, event count and counters every time.
func TestCaseDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		c := GenCase(seed, GenOpts{})
		a, b := c.Run(), c.Run()
		a.Wall, b.Wall = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two runs differ:\n%+v\n%+v", seed, a, b)
		}
	}
}

// TestGenDeterminism: the generator is a pure function of its seed.
func TestGenDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 99} {
		a, b := GenCase(seed, GenOpts{}), GenCase(seed, GenOpts{})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: generator not deterministic", seed)
		}
	}
}

// TestSmokeCampaign runs the three `make fuzz-smoke` campaigns; every
// case must pass, and each campaign's perturbed-case and engine-event
// totals are pinned. The totals are independent of the worker count, so
// any change to them means the protocol or the chaos layer behaves
// differently; fault-injected crossings are what reach the home's
// pending-request completion arms.
func TestSmokeCampaign(t *testing.T) {
	for _, tc := range []struct {
		name      string
		seed      int64
		cases     int
		protocol  string
		perturbed int
		events    uint64
	}{
		{"mixed", 1, 500, "", 474, 433933},
		{"hybrid", 2, 100, "hybrid", 97, 83007},
		{"dsi", 3, 100, "dsi", 93, 83264},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cr := RunCampaign(CampaignOpts{Seed: tc.seed, Cases: tc.cases, Workers: 2, ShrinkRuns: 500,
				Gen: GenOpts{Protocol: tc.protocol}})
			if cr.Cases != tc.cases {
				t.Fatalf("ran %d of %d cases", cr.Cases, tc.cases)
			}
			for _, f := range cr.Failures {
				t.Errorf("seed %d: %s (shrunk to %d ops)", f.Seed, f.Result.Failure, f.ShrunkOps)
			}
			if cr.Perturbed != tc.perturbed || cr.Events != tc.events {
				t.Errorf("perturbed=%d events=%d, want %d and %d", cr.Perturbed, cr.Events, tc.perturbed, tc.events)
			}
		})
	}
}

// TestPlantedBugCaught is the end-to-end fuzzer acceptance: inject a
// protocol bug (silently dropping NackNotHome, so a requester bounced off
// a stale delegation hint never retries and its access hangs), and prove
// the campaign finds it and shrinks it to a small reproduction that still
// fails.
func TestPlantedBugCaught(t *testing.T) {
	bug := Rule{Type: "NackNotHome", DropEvery: 1}
	cr := RunCampaign(CampaignOpts{
		Seed:        1,
		Cases:       400,
		Workers:     2,
		Gen:         GenOpts{ForceDelegation: true, ExtraRules: []Rule{bug}},
		ShrinkRuns:  3000,
		MaxFailures: 1,
	})
	if len(cr.Failures) == 0 {
		t.Fatal("planted NackNotHome drop was never caught in 400 cases")
	}
	f := cr.Failures[0]
	if res := f.Shrunk.Run(); res.Ok {
		t.Fatalf("shrunk case no longer fails: %+v", res)
	}
	if f.ShrunkOps > 20 {
		t.Errorf("shrunk reproduction has %d ops, want <= 20", f.ShrunkOps)
	}
	t.Logf("caught seed %d: %s; shrunk %d -> %d ops in %d runs",
		f.Seed, f.Result.Failure, len(f.Case.Ops), f.ShrunkOps, f.ShrinkRuns)
}

// TestZeroFaultConfigDisabled: an empty schedule installs no chaos at all,
// keeping the zero-fault path identical to a plain run.
func TestZeroFaultConfigDisabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero Config reports Enabled")
	}
	if (Config{Seed: 99}).Enabled() {
		t.Fatal("seed alone must not enable chaos")
	}
	if !(Config{NackProb: 0.1}).Enabled() {
		t.Fatal("NackProb must enable chaos")
	}
}

// TestWatchdogReportsCensus drives a case into a genuine livelock — every
// GetShared bounced, forever — and checks the watchdog failure carries
// both the fault seed and the pending-message census, the two things a
// triager needs before ever opening the replay file.
func TestWatchdogReportsCensus(t *testing.T) {
	c := Case{
		Seed: 9,
		Machine: Machine{
			Nodes: 3, Lines: 1, L2Lines: 4,
		},
		Faults: Config{
			Seed: 9,
			// Count 0 = unlimited: the read below can never complete.
			Rules: []Rule{{Type: "GetShared", NackEvery: 1}},
		},
		Ops: []Op{{At: 0, Node: 1, Line: 0}},
	}
	res := c.Run()
	if res.Ok {
		t.Fatal("endless-NACK case unexpectedly completed")
	}
	if !strings.Contains(res.Failure, "watchdog (fault seed 9)") {
		t.Fatalf("failure lacks fault seed: %q", res.Failure)
	}
	if !strings.Contains(res.Failure, "pending:") {
		t.Fatalf("failure lacks pending-message census: %q", res.Failure)
	}
}

// TestTraceTail replays a failing case observed and checks the captured
// window renders the protocol's final events — the NACK/retry churn the
// livelock above is made of.
func TestTraceTail(t *testing.T) {
	c := Case{
		Seed: 9,
		Machine: Machine{
			Nodes: 3, Lines: 1, L2Lines: 4,
		},
		Faults: Config{
			Seed:  9,
			Rules: []Rule{{Type: "GetShared", NackEvery: 1}},
		},
		Ops: []Op{{At: 0, Node: 1, Line: 0}},
	}
	tail := c.TraceTail(16)
	if len(tail) != 16 {
		t.Fatalf("tail kept %d lines, want 16", len(tail))
	}
	sawSend := false
	for _, line := range tail {
		if strings.Contains(line, "send ") && strings.Contains(line, "line 0x10000000") {
			sawSend = true
		}
	}
	if !sawSend {
		t.Fatalf("tail shows no message sends:\n%s", strings.Join(tail, "\n"))
	}
}
