package fault

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pccsim/internal/mcheck"
)

// MCheckCase is a model-checker counterexample in the same replay-forever
// spirit as the fuzzer's Case: the bounded-model configuration, the rule
// trace from the initial state, and the property the final state violates.
// The checker (cmd/pccverify -repro-dir) writes these into
// testdata/corpus/mcheck/ beside the fuzzer corpus; ReplayMCheckCase
// drives the model back into the violating state under `go test`.
type MCheckCase struct {
	Note string `json:"note,omitempty"`

	// The bounded-model configuration; its JSON tags are the corpus keys.
	mcheck.Config

	// Invariant is the violated property as reported by the checker
	// ("deadlock-freedom", "single-writer (…)", "L1:data-value (…)", …).
	// Replay matches on the category — the part before any line prefix
	// and parenthetical — because the trace may land on a symmetric twin
	// of the recorded state.
	Invariant string   `json:"invariant"`
	Trace     []string `json:"trace"`
}

// invariantCategory strips an "L<n>:" line prefix and any parenthetical
// detail: "L1:data-value (node 2 caches v0, latest v1)" -> "data-value".
func invariantCategory(inv string) string {
	if i := strings.Index(inv, ":"); i >= 0 && strings.HasPrefix(inv, "L") {
		inv = inv[i+1:]
	}
	if i := strings.Index(inv, " ("); i >= 0 {
		inv = inv[:i]
	}
	return strings.TrimSpace(inv)
}

// ReplayMCheckCase applies the trace and asserts the final state violates
// the recorded property: for "deadlock-freedom" the state must be terminal
// and not quiescent; for invariants, CheckInvariants must report the same
// category.
func ReplayMCheckCase(c MCheckCase) error {
	cfg := c.Config
	st, err := mcheck.ApplyTrace(cfg, c.Trace)
	if err != nil {
		return err
	}
	if c.Invariant == "deadlock-freedom" {
		if !mcheck.Terminal(cfg, st) {
			return fmt.Errorf("replayed state still has enabled transitions: %s", st)
		}
		if mcheck.Quiescent(st) {
			return fmt.Errorf("replayed state is quiescent, not deadlocked: %s", st)
		}
		return nil
	}
	got := mcheck.CheckInvariants(cfg, st)
	if got == "" {
		return fmt.Errorf("replayed state violates nothing (expected %s): %s", c.Invariant, st)
	}
	if invariantCategory(got) != invariantCategory(c.Invariant) {
		return fmt.Errorf("replayed state violates %q, case records %q", got, c.Invariant)
	}
	return nil
}

// WriteMCheckCase serializes c as indented JSON at path, creating parent
// directories — same conventions as WriteCase.
func WriteMCheckCase(path string, c MCheckCase) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadMCheckCase loads one case; unknown fields are rejected so a typo in
// a hand-edited repro fails loudly.
func ReadMCheckCase(path string) (MCheckCase, error) {
	var c MCheckCase
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}
