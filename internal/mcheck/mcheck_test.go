package mcheck

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// small returns a fast configuration for unit tests.
func small() Config {
	cfg := DefaultConfig()
	cfg.MaxWrites = 2
	cfg.MaxIssues = 2
	return cfg
}

func TestExploreBaseProtocol(t *testing.T) {
	cfg := small()
	cfg.Delegation = false
	res := ExploreOpts(cfg, Options{})
	t.Logf("base: %s", res)
	if !res.Ok() {
		for _, v := range res.Violations {
			t.Errorf("violation: %s in %s", v.Invariant, v.State)
		}
		for _, d := range res.Deadlocks {
			t.Errorf("deadlock: %s", d.State)
		}
	}
	if res.States < 1000 {
		t.Fatalf("suspiciously small state space: %d", res.States)
	}
}

func TestExploreWithDelegation(t *testing.T) {
	// Detection needs DetThresh+1 same-producer writes; lower the
	// threshold so delegation is reachable at these small bounds.
	cfg := small()
	cfg.MaxWrites = 2
	cfg.MaxIssues = 2
	cfg.DetThresh = 1
	res := ExploreOpts(cfg, Options{})
	t.Logf("delegation+updates: %s (delegated states: %d)", res, res.Delegated)
	if res.Delegated == 0 {
		t.Fatal("exploration never reached a delegated state")
	}
	if !res.Ok() {
		for i, v := range res.Violations {
			if i >= 3 {
				break
			}
			t.Errorf("violation: %s in %s", v.Invariant, v.State)
		}
		for i, d := range res.Deadlocks {
			if i >= 3 {
				break
			}
			t.Errorf("deadlock: %s", d.State)
		}
	}
	if res.States < 10000 {
		t.Fatalf("delegation space too small: %d (delegation not reached?)", res.States)
	}
}

func TestExploreTwoNodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.MaxWrites = 3
	cfg.MaxIssues = 4
	res := ExploreOpts(cfg, Options{})
	t.Logf("2 nodes: %s", res)
	if !res.Ok() {
		t.Fatalf("2-node exploration failed: %s", res)
	}
}

func TestLitmusSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("litmus suite takes ~10s")
	}
	// Pinned (states, outcomes) per test: any change to a litmus-mode
	// rule body shows up here.
	want := map[string][2]int{
		"CoRR/base":                    {242, 10},
		"CoWR/base":                    {482, 6},
		"PC-rounds/base":               {184505, 438},
		"CoRR/delegation+updates":      {242, 10},
		"CoWR/delegation+updates":      {482, 6},
		"PC-rounds/delegation+updates": {659286, 439},
	}
	for _, f := range StandardLitmusTests(Options{}) {
		res := f()
		t.Logf("%s: states=%d outcomes=%d", res.Name, res.States, res.Outcomes)
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if got := [2]int{res.States, res.Outcomes}; got != want[res.Name] {
			t.Errorf("%s: (states, outcomes) = %v, want %v", res.Name, got, want[res.Name])
		}
	}
}

// TestConfigValidate: the shipped configurations validate, and every value
// the model cannot represent is rejected with ErrBadConfig — by Validate,
// by ExploreOpts as Result.Err with nothing explored, and by ApplyTrace.
func TestConfigValidate(t *testing.T) {
	for name, cfg := range map[string]Config{"default": DefaultConfig(), "deep": DeepConfig(), "bench": BenchConfig()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, tc := range []struct {
		name string
		bad  func(*Config)
	}{
		{"nodes=0", func(c *Config) { c.Nodes = 0 }},
		{"nodes=9", func(c *Config) { c.Nodes = 9 }},
		{"lines=-1", func(c *Config) { c.Lines = -1 }},
		{"lines=40", func(c *Config) { c.Lines = 40 }},
		{"queue=0", func(c *Config) { c.QueueDepth = 0 }},
		{"queue=256", func(c *Config) { c.QueueDepth = 256 }},
		{"writes=-1", func(c *Config) { c.MaxWrites = -1 }},
		{"writes=128", func(c *Config) { c.MaxWrites = 128 }},
		{"det=-56", func(c *Config) { c.DetThresh = -56 }},
		{"issues=-1", func(c *Config) { c.MaxIssues = -1 }},
		{"tot=-1", func(c *Config) { c.MaxTotalIssues = -1 }},
		{"scripts", func(c *Config) { c.Scripts = [][]LitOp{{}, {}} }},
	} {
		cfg := DefaultConfig()
		tc.bad(&cfg)
		if err := cfg.Validate(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Validate = %v, want ErrBadConfig", tc.name, err)
		}
		if r := ExploreOpts(cfg, Options{Workers: 1}); !errors.Is(r.Err, ErrBadConfig) || r.Ok() || r.States != 0 {
			t.Errorf("%s: ExploreOpts err %v after %d states, want ErrBadConfig before any", tc.name, r.Err, r.States)
		}
		if _, err := ApplyTrace(cfg, nil); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: ApplyTrace = %v, want ErrBadConfig", tc.name, err)
		}
	}
}

// A broken invariant must be reported: corrupt a state by hand.
func TestInvariantsDetectCorruption(t *testing.T) {
	cfg := small()
	s := NewState(cfg)
	s.N[1].Cache = CE
	s.N[2].Cache = CE
	if inv := CheckInvariants(cfg, s); !strings.Contains(inv, "single-writer") {
		t.Fatalf("two owners not detected: %q", inv)
	}

	s = NewState(cfg)
	s.N[1].Cache = CS
	s.N[1].Val = 1 // claims v1, but Latest is 0
	s.Latest[0] = 0
	if inv := CheckInvariants(cfg, s); !strings.Contains(inv, "data-value") {
		t.Fatalf("stale copy not detected: %q", inv)
	}

	s = NewState(cfg)
	s.N[2].Cache = CE
	s.H[0].Dir = DS
	if inv := CheckInvariants(cfg, s); !strings.Contains(inv, "directory") {
		t.Fatalf("dir inconsistency not detected: %q", inv)
	}

	// An exclusive holder other than the owner the home records, with the
	// line exclusive at the home or delegated to a producer.
	for _, dir := range []DirState{DE, DD} {
		s = NewState(cfg)
		s.N[2].Cache = CE
		s.H[0].Dir = dir
		s.H[0].Owner = 1
		s.N[1].HasProd = dir == DD
		want := fmt.Sprintf("directory (node 2 exclusive, home %s owner 1)", dir)
		if inv := CheckInvariants(cfg, s); inv != want {
			t.Errorf("home %s: got %q, want %q", dir, inv, want)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	// A state with an outstanding MSHR and empty channels has no enabled
	// transitions -> it must be flagged as a deadlock, not quiescence.
	cfg := small()
	s := NewState(cfg)
	s.N[1].Mshr = MWantS
	s.Iss[1] = cfg.MaxIssues // cannot reissue
	if quiescent(s) {
		t.Fatal("state with outstanding MSHR reported quiescent")
	}
}

func TestCanonicalKeySymmetry(t *testing.T) {
	cfg := small()
	a := NewState(cfg)
	a.N[1].Cache = CE
	a.N[1].Val = 1
	a.H[0].Dir = DE
	a.H[0].Owner = 1
	a.Latest[0] = 1

	b := NewState(cfg)
	b.N[2].Cache = CE
	b.N[2].Val = 1
	b.H[0].Dir = DE
	b.H[0].Owner = 2
	b.Latest[0] = 1

	if a.Key() == b.Key() {
		t.Fatal("plain keys should differ")
	}
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatal("symmetric states have different canonical keys")
	}
}

func TestCloneIndependence(t *testing.T) {
	cfg := small()
	s := NewState(cfg)
	s.send(0, 1, Msg{Type: MGetS}, 2)
	c := s.Clone()
	c.N[0].Cache = CE
	c.Ch[1] = append(c.Ch[1], Msg{Type: MInval})
	if s.N[0].Cache == CE {
		t.Fatal("clone shares node state")
	}
	if len(s.Ch[1]) != 1 {
		t.Fatal("clone shares channels")
	}
}

func TestStateStringNonEmpty(t *testing.T) {
	s := NewState(small())
	if s.String() == "" {
		t.Fatal("empty state string")
	}
}

func TestTraceTo(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.MaxWrites = 1
	cfg.MaxIssues = 1
	// Find some reachable non-initial state, then reconstruct a path.
	init := NewState(cfg)
	succs := Successors(cfg, init)
	if len(succs) == 0 {
		t.Fatal("no successors from initial state")
	}
	target := succs[0].State
	path := TraceTo(cfg, target)
	if len(path) != 1 {
		t.Fatalf("trace to depth-1 state has %d steps", len(path))
	}
}

func BenchmarkVerifyReachability(b *testing.B) {
	cfg := small()
	for i := 0; i < b.N; i++ {
		res := ExploreOpts(cfg, Options{})
		if !res.Ok() {
			b.Fatal("verification failed")
		}
	}
}
