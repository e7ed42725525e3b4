package main

import (
	"os"
	"path/filepath"
	"testing"

	"pccsim"
)

// TestTraceEveryProtocol runs `pccsim trace` under every registered
// protocol with default mechanism flags: each is provisioned on its
// bake-off configuration, so none may fail validation.
func TestTraceEveryProtocol(t *testing.T) {
	dir := t.TempDir()
	for _, p := range pccsim.Protocols() {
		out := filepath.Join(dir, p+".json")
		args := []string{"-protocol", p, "-nodes", "4", "-iters", "1", "-out", out}
		if code := traceMain(args); code != 0 {
			t.Errorf("pccsim trace -protocol %s: exit %d, want 0", p, code)
			continue
		}
		if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
			t.Errorf("pccsim trace -protocol %s wrote no trace (%v)", p, err)
		}
	}
}

// TestNegativeSizesAreUsageErrors: a negative -scale or -iters would run
// as the default while the report names the negative value, so both the
// root command and trace reject it as a usage error before simulating.
func TestNegativeSizesAreUsageErrors(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.json")
	for _, c := range []struct {
		cmd  string
		main func([]string) int
		args []string
	}{
		{"pccsim", runMain, []string{"-nodes", "4", "-scale", "-1"}},
		{"pccsim trace", traceMain, []string{"-nodes", "4", "-iters", "-3", "-out", out}},
	} {
		if code := c.main(c.args); code != 2 {
			t.Errorf("%s %v: exit %d, want 2", c.cmd, c.args, code)
		}
	}
}

// TestTraceExplicitDelegationNeedsDelegatingProtocol keeps the explicit
// form strict: delegation sizing asked for under a protocol that does
// not delegate is a configuration error, not silently dropped.
func TestTraceExplicitDelegationNeedsDelegatingProtocol(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.json")
	for _, p := range []string{"mesi", "dsi", "hybrid"} {
		args := []string{"-protocol", p, "-rac-kb", "32", "-deledc", "32", "-nodes", "4", "-iters", "1", "-out", out}
		if code := traceMain(args); code != 1 {
			t.Errorf("pccsim trace -protocol %s -deledc 32: exit %d, want 1", p, code)
		}
	}
}
