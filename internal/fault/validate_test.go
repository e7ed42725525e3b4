package fault

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pccsim/internal/core"
)

// caseJSON wraps a machine encoding into a one-op case on node 0, line 0.
func caseJSON(machine string) string {
	return `{"seed":1,"machine":` + machine + `,"faults":{"seed":1},"ops":[{"at":0,"node":0,"line":0}]}`
}

// TestCaseValidateRejects pins the fuzz-input gate: every machine below
// is illegal, either structurally or because core.Config.Validate
// refuses its mechanism settings, and must stay rejected by DecodeCase
// or Validate. The self_invalidate rows are the old spelling of the dsi
// protocol's mechanism; the key no longer decodes.
func TestCaseValidateRejects(t *testing.T) {
	for _, tc := range []struct{ name, machine string }{
		{"one-node", `{"nodes":1,"lines":2,"l2_lines":4}`},
		{"too-many-nodes", `{"nodes":300,"lines":2,"l2_lines":4}`},
		{"no-lines", `{"nodes":4,"lines":0,"l2_lines":4}`},
		{"tiny-l2", `{"nodes":4,"lines":2,"l2_lines":1}`},
		{"huge-l2", `{"nodes":4,"lines":2,"l2_lines":1099511627776}`},
		// Geometries the set-associative arrays cannot build: core
		// panicked on these before Validate checked them.
		{"l2-sets-not-power-of-two", `{"nodes":4,"lines":2,"l2_lines":6}`},
		{"rac-not-divisible", `{"nodes":4,"lines":2,"l2_lines":4,"rac_lines":3}`},
		{"rac-sets-not-power-of-two", `{"nodes":4,"lines":2,"l2_lines":4,"rac_lines":6}`},
		{"negative-rac", `{"nodes":4,"lines":2,"l2_lines":4,"rac_lines":-2,"delegate_entries":2}`},
		{"shards-over-nodes", `{"nodes":4,"lines":2,"l2_lines":4,"shards":5}`},
		{"negative-shards", `{"nodes":4,"lines":2,"l2_lines":4,"shards":-1}`},
		{"delegation-without-rac", `{"nodes":4,"lines":2,"l2_lines":4,"delegate_entries":2}`},
		{"unknown-protocol", `{"nodes":4,"lines":2,"l2_lines":4,"protocol":"mosi"}`},
		{"mesi-delegation", `{"nodes":4,"lines":2,"l2_lines":4,"rac_lines":4,"protocol":"mesi","delegate_entries":2}`},
		{"hybrid-delegation", `{"nodes":4,"lines":2,"l2_lines":4,"rac_lines":4,"protocol":"hybrid","delegate_entries":2}`},
		{"dsi-delegation", `{"nodes":4,"lines":2,"l2_lines":4,"rac_lines":4,"protocol":"dsi","delegate_entries":2}`},
		{"mesi-updates", `{"nodes":4,"lines":2,"l2_lines":4,"rac_lines":4,"protocol":"mesi","updates":true}`},
		{"hybrid-updates", `{"nodes":4,"lines":2,"l2_lines":4,"rac_lines":4,"protocol":"hybrid","updates":true}`},
		{"dsi-updates", `{"nodes":4,"lines":2,"l2_lines":4,"rac_lines":4,"protocol":"dsi","updates":true}`},
		{"mesi-updates-delegation", `{"nodes":4,"lines":2,"l2_lines":4,"rac_lines":4,"protocol":"mesi","delegate_entries":2,"updates":true}`},
		{"mesi-adaptive-delay", `{"nodes":4,"lines":2,"l2_lines":4,"protocol":"mesi","adaptive":true}`},
		{"hybrid-adaptive-delay", `{"nodes":4,"lines":2,"l2_lines":4,"protocol":"hybrid","adaptive":true}`},
		{"dsi-adaptive-delay", `{"nodes":4,"lines":2,"l2_lines":4,"protocol":"dsi","adaptive":true}`},
		{"selfinval-delegation", `{"nodes":4,"lines":2,"l2_lines":4,"rac_lines":4,"delegate_entries":2,"self_invalidate":true}`},
		{"selfinval-updates", `{"nodes":4,"lines":2,"l2_lines":4,"updates":true,"self_invalidate":true}`},
		{"mesi-selfinval", `{"nodes":4,"lines":2,"l2_lines":4,"protocol":"mesi","self_invalidate":true}`},
		{"hybrid-selfinval", `{"nodes":4,"lines":2,"l2_lines":4,"protocol":"hybrid","self_invalidate":true}`},
		// Accepted before, but BuildConfig drops the updates: a repro
		// naming a mechanism it never ran.
		{"updates-without-delegation", `{"nodes":4,"lines":2,"l2_lines":4,"rac_lines":4,"updates":true}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := DecodeCase([]byte(caseJSON(tc.machine)))
			if err == nil {
				err = c.Validate()
			}
			if err == nil {
				t.Fatalf("machine %s accepted", tc.machine)
			}
		})
	}

	c := Case{Machine: Machine{Nodes: 4, Lines: 2, L2Lines: 4}, Ops: []Op{{Node: 4}}}
	if c.Validate() == nil {
		t.Error("op on node 4 of 4 accepted")
	}
	c.Ops = []Op{{Line: 2}}
	if c.Validate() == nil {
		t.Error("op on line 2 of 2 accepted")
	}
}

// TestCaseValidateAccepts is the other half of the gate: every legal
// protocol/mechanism pairing decodes, validates, and builds a
// configuration core accepts.
func TestCaseValidateAccepts(t *testing.T) {
	for _, machine := range []string{
		`{"nodes":4,"lines":2,"l2_lines":4}`,
		`{"nodes":4,"lines":2,"l2_lines":4,"protocol":"mesi"}`,
		`{"nodes":4,"lines":2,"l2_lines":4,"protocol":"hybrid","detector_writers":2}`,
		`{"nodes":4,"lines":2,"l2_lines":4,"protocol":"dsi","intervention_delay":20}`,
		`{"nodes":4,"lines":2,"l2_lines":4,"rac_lines":2,"delegate_entries":2,"updates":true,"adaptive":true}`,
		`{"nodes":4,"lines":2,"l2_lines":4,"protocol":"adaptive","adaptive":true}`,
		`{"nodes":4,"lines":2,"l2_lines":4,"protocol":"dsi","shards":2,"parallel":true}`,
	} {
		c, err := DecodeCase([]byte(caseJSON(machine)))
		if err != nil {
			t.Fatalf("%s: %v", machine, err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s rejected: %v", machine, err)
		}
	}
}

// FuzzCaseDecode feeds arbitrary bytes to the corpus decoder, seeded
// with the committed reproductions. Decoding and validation never
// panic, every case Validate accepts builds a configuration that
// core.Config.Validate accepts too (the two gates cannot drift apart),
// and core.NewSystem builds that machine without panicking.
func FuzzCaseDecode(f *testing.F) {
	paths, err := filepath.Glob("testdata/corpus/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(caseJSON(`{"nodes":4,"lines":2,"l2_lines":4,"protocol":"dsi"}`)))
	f.Add([]byte(caseJSON(`{"nodes":4,"lines":2,"l2_lines":6}`)))
	f.Add([]byte(caseJSON(`{"nodes":4,"lines":2,"l2_lines":4,"rac_lines":3}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCase(data)
		if err != nil {
			return
		}
		if c.Validate() != nil {
			return
		}
		cfg := c.BuildConfig()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Validate accepted a case whose configuration core rejects: %v\n%s",
				err, strings.TrimSpace(string(data)))
		}
		if _, err := core.NewSystem(cfg); err != nil {
			t.Fatalf("core.NewSystem refused a validated case: %v\n%s",
				err, strings.TrimSpace(string(data)))
		}
	})
}
