package fault

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMCheckCorpusReplays replays every checker-emitted counterexample in
// testdata/corpus/mcheck: the trace must drive the model from its initial
// state back into a state violating the recorded property. These files are
// written by `pccverify -repro-dir` and committed, so a checker finding
// replays under `go test` forever.
func TestMCheckCorpusReplays(t *testing.T) {
	cases, names, err := loadMCheckCorpus(filepath.Join("testdata", "corpus", "mcheck"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("mcheck corpus is empty — the replay path is untested")
	}
	for i, c := range cases {
		c, name := c, names[i]
		t.Run(name, func(t *testing.T) {
			if err := ReplayMCheckCase(c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMCheckCaseRoundTrip pins the on-disk schema: every committed case,
// read back with unknown-field rejection and written again, reproduces
// its file byte for byte, and the rewritten file replays.
func TestMCheckCaseRoundTrip(t *testing.T) {
	dir := filepath.Join("testdata", "corpus", "mcheck")
	cases, names, err := loadMCheckCorpus(dir)
	if err != nil || len(cases) == 0 {
		t.Fatal("need a committed corpus case")
	}
	for i, c := range cases {
		path := filepath.Join(t.TempDir(), names[i])
		if err := WriteMCheckCase(path, c); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(dir, names[i]))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s re-encodes differently:\n%s\nwant:\n%s", names[i], got, want)
		}
		back, err := ReadMCheckCase(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := ReplayMCheckCase(back); err != nil {
			t.Fatalf("%s after a round trip: %v", names[i], err)
		}
	}
}

func TestInvariantCategory(t *testing.T) {
	for in, want := range map[string]string{
		"deadlock-freedom":                            "deadlock-freedom",
		"single-writer (two exclusive holders)":       "single-writer",
		"L1:data-value (node 2 caches v0, latest v1)": "data-value",
		"directory (home S with exclusive holder 1)":  "directory",
	} {
		if got := invariantCategory(in); got != want {
			t.Fatalf("invariantCategory(%q) = %q, want %q", in, got, want)
		}
	}
}

// loadMCheckCorpus reads every *.json case under dir, sorted by name. A
// missing directory is an empty corpus.
func loadMCheckCorpus(dir string) ([]MCheckCase, []string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	cases := make([]MCheckCase, 0, len(names))
	for _, n := range names {
		c, err := ReadMCheckCase(filepath.Join(dir, n))
		if err != nil {
			return nil, nil, err
		}
		cases = append(cases, c)
	}
	return cases, names, nil
}
