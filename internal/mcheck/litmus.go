package mcheck

import "fmt"

// LitmusResult reports one litmus exploration.
type LitmusResult struct {
	Name     string
	States   int
	Outcomes int // distinct terminal observation vectors
	Err      error
}

// Litmus explores every interleaving of the scripted programs in
// cfg.Scripts on the parallel engine and calls check on the observation
// vector of each terminal state (per node, the versions its reads returned
// in program order; a script stalled by the issue bound contributes its
// prefix). The verdict is deterministic at any worker count: the
// exploration runs to its fixpoint, terminal states are visited in
// canonical-encoding order, and an invariant violation is reported from
// the lexicographically smallest violating state, so the error text —
// including the embedded state — is identical at workers=1 and workers=N.
// (Litmus mode never applies symmetry reduction; the scripts distinguish
// the nodes.)
func Litmus(name string, cfg Config, check func(obs [][]int8) error, opt Options) *LitmusResult {
	if cfg.Scripts == nil {
		panic("mcheck: Litmus needs cfg.Scripts")
	}
	res := &LitmusResult{Name: name}
	r, terms := exploreFull(cfg, opt)
	res.States = r.States
	if r.Err != nil {
		res.Err = fmt.Errorf("litmus %s: %w", name, r.Err)
		return res
	}
	if len(r.Violations) > 0 {
		v := r.Violations[0]
		res.Err = fmt.Errorf("litmus %s: invariant %s in %s", name, v.Invariant, v.State)
		return res
	}
	outcomes := map[string]bool{}
	for _, enc := range terms {
		st := DecodeState(cfg, enc)
		key := fmt.Sprint(st.Obs)
		if outcomes[key] {
			continue
		}
		outcomes[key] = true
		if err := check(st.Obs); err != nil {
			res.Err = fmt.Errorf("litmus %s: %w (state %s)", name, err, st)
			res.Outcomes = len(outcomes)
			return res
		}
	}
	res.Outcomes = len(outcomes)
	return res
}

// monotonic asserts a node's successive reads never observe versions going
// backwards — the per-location ordering guarantee (CoRR) that sequential
// consistency requires of the coherence protocol.
func monotonic(obs [][]int8) error {
	for n, reads := range obs {
		for i := 1; i < len(reads); i++ {
			if reads[i] < reads[i-1] {
				return fmt.Errorf("node %d read v%d after v%d", n, reads[i], reads[i-1])
			}
		}
	}
	return nil
}

// LitmusShape is one scripted multi-node program shape: per node, the
// sequence of reads and writes it performs on the single contended line.
// The exhaustive explorer runs each shape over every interleaving; the
// fault-injection fuzzer reuses the same shapes as case skeletons, so the
// races the model checker proves safe on tiny configurations are also the
// races the full simulator is stressed on at scale.
type LitmusShape struct {
	Name    string
	Scripts [][]LitOp
}

// StandardLitmusShapes returns the classic per-location ordering shapes:
// CoRR (read-read coherence), CoWR (write-read coherence) and the paper's
// own producer-consumer round pattern. Node 0 is always the home node.
func StandardLitmusShapes() []LitmusShape {
	r := LitOp{}
	w := LitOp{Write: true}
	return []LitmusShape{
		// CoRR: two reads on one node never go backwards while another
		// node writes twice.
		{Name: "CoRR", Scripts: [][]LitOp{
			{},        // node 0 (home) idle
			{w, w},    // writer
			{r, r, r}, // reader: monotonic observations
		}},
		// CoWR: a node reads its own write at least as new as written.
		{Name: "CoWR", Scripts: [][]LitOp{
			{},
			{w, r, r},
			{r, w},
		}},
		// Producer-consumer rounds: the delegation/update pattern
		// itself — writer bursts, two consumers poll.
		{Name: "PC-rounds", Scripts: [][]LitOp{
			{r, r}, // home also consumes
			{w, w, w},
			{r, r, r},
		}},
	}
}

// StandardLitmusTests returns the suite run by cmd/pccverify: the standard
// shapes, each explored with opt under the full protocol with delegation
// and updates enabled (and once disabled, as a control).
func StandardLitmusTests(opt Options) []func() *LitmusResult {
	mk := func(name string, deleg bool, scripts [][]LitOp, check func([][]int8) error) func() *LitmusResult {
		return func() *LitmusResult {
			cfg := DefaultConfig()
			cfg.MaxWrites = 3
			cfg.MaxIssues = 6
			cfg.Delegation = deleg
			cfg.Scripts = scripts
			return Litmus(name, cfg, check, opt)
		}
	}
	var tests []func() *LitmusResult
	for _, deleg := range []bool{false, true} {
		suffix := "/base"
		if deleg {
			suffix = "/delegation+updates"
		}
		for _, sh := range StandardLitmusShapes() {
			tests = append(tests, mk(sh.Name+suffix, deleg, sh.Scripts, monotonic))
		}
	}
	return tests
}
