package fault

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// WriteCase serializes c as indented JSON at path (parent directories are
// created). The files are meant to be committed, so the encoding is stable
// and human-editable.
func WriteCase(path string, c Case) error {
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

// ReadCase loads a corpus file (see DecodeCase).
func ReadCase(path string) (Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Case{}, err
	}
	c, err := DecodeCase(data)
	if err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// DecodeCase parses one case from its JSON encoding. Unknown fields are
// rejected so a typo in a hand-edited reproduction fails loudly instead
// of silently running a different case. Decoding does not validate; run
// Case.Validate before trusting the machine.
func DecodeCase(data []byte) (Case, error) {
	var c Case
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&c)
	return c, err
}

// LoadCorpus reads every *.json case under dir, sorted by name for
// deterministic iteration. A missing directory is an empty corpus.
func LoadCorpus(dir string) ([]Case, []string, error) {
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
	cases := make([]Case, 0, len(names))
	for _, n := range names {
		c, err := ReadCase(filepath.Join(dir, n))
		if err != nil {
			return nil, nil, err
		}
		cases = append(cases, c)
	}
	return cases, names, nil
}
