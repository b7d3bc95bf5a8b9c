package conformance

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"synran"
	"synran/internal/journal"
	"synran/internal/scenario"
	"synran/internal/trials"
)

// This file is the harness's scenario surface: corpus entries
// (testdata/corpus/*.scenario) are the primary case source, the sync
// differential Case is a derived view of a Scenario (the async lane
// takes the Scenario itself), and a failing scenario can be minimized
// and written back as a ready-to-run corpus repro.

// FromScenario derives the synchronous differential Case a scenario
// describes. A Case has no drop schedule, so chaos scenarios have no
// differential lanes (SweepCorpus checks them through the
// outcome/expect lane instead), and async scenarios run through
// CheckAsync.
func FromScenario(s scenario.Scenario) (Case, error) {
	if s.IsAsync() {
		return Case{}, fmt.Errorf("conformance: %q is an async scenario (replay-determinism lane, not the sync differential lanes)", s.Protocol)
	}
	if s.Chaos != "" {
		return Case{}, fmt.Errorf("conformance: chaos scenarios have no differential lanes (run via -scenario)")
	}
	return caseOf(s), nil
}

// caseOf is the differential Case a synchronous scenario describes.
func caseOf(s scenario.Scenario) Case {
	c := Case{
		Protocol: s.Protocol, Adversary: s.Adversary, Workload: s.Workload,
		N: s.N, T: s.T, Seed: s.Seed, Engine: s.Engine, MaxRounds: s.MaxRounds,
		FaultBudget: s.FaultBudget,
	}
	c.normalize()
	return c
}

// CaseName names a scenario's case in reports: the differential Case's
// name, or for an async scenario its scheduler, coin, workload, size
// and seed.
func CaseName(s scenario.Scenario) string {
	if s.IsAsync() {
		return fmt.Sprintf("async-benor/%s/%s/%s/n=%d/t=%d/seed=%d",
			s.Adversary, s.Coin, s.Workload, s.N, s.T, s.Seed)
	}
	return caseOf(s).Name()
}

// Scenario is the declarative form of the case (trials 1, no
// expectations — a Case is one seeded differential check). SnapRound
// and AllowUnsafe are derived state, reconstructed by normalize on the
// way back in.
func (c Case) Scenario() scenario.Scenario {
	s := scenario.Scenario{
		Protocol: c.Protocol, Adversary: c.Adversary, Workload: c.Workload,
		N: c.N, T: c.T, Seed: c.Seed, Engine: c.Engine, MaxRounds: c.MaxRounds,
	}
	if scenario.IsOmission(c.Adversary) {
		// FaultBudget only round-trips for omission cases: the scenario
		// layer rejects a bare budget on lock-step scenarios otherwise.
		s.FaultBudget = c.FaultBudget
	}
	s.Normalize()
	return s
}

// expectRepro is the repro line for a corpus entry's expectation
// violation: re-run the exact file.
func expectRepro(path string) string {
	return fmt.Sprintf("go run ./cmd/conformance -scenario %s", path)
}

// checkExpect runs every trial of the entry's scenario and compares the
// outcomes against its assertions. No assertions → no runs (differential
// lanes already covered the base seed).
func checkExpect(e scenario.Entry) ([]string, error) {
	s := e.Scenario
	if !s.Expect.Any() {
		return nil, nil
	}
	var out []string
	for trial := 0; trial < s.Trials; trial++ {
		o, err := scenario.RunOutcome(&s, trial, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("conformance: %s trial %d: %w", e.Name(), trial, err)
		}
		for _, v := range s.CheckExpect(o) {
			out = append(out, fmt.Sprintf("%s trial %d (seed %d): %s\n  repro: %s",
				e.Name(), trial, s.TrialSeed(trial), v, expectRepro(e.Path)))
		}
	}
	return out, nil
}

// CheckScenario runs one scenario through every lane that applies: the
// sync differential lanes or the async replay-determinism check, plus
// the outcome/expect lane (chaos scenarios run the expect lane only).
func CheckScenario(e scenario.Entry, oracles []Oracle) ([]Divergence, []string, error) {
	s := e.Scenario
	var (
		divs       []Divergence
		violations []string
	)
	switch {
	case s.IsAsync():
		var err error
		divs, violations, err = CheckAsync(s)
		if err != nil {
			return nil, nil, err
		}
	case s.Chaos != "":
		// Outcome/expect lane only; still fail the harness on engine errors.
		if !s.Expect.Any() {
			if _, err := scenario.RunOutcome(&s, 0, nil, 0); err != nil {
				return nil, nil, fmt.Errorf("conformance: %s: %w", e.Name(), err)
			}
		}
	default:
		c, err := FromScenario(s)
		if err != nil {
			return nil, nil, err
		}
		divs, violations, err = CheckSync(c, oracles)
		if err != nil {
			return nil, nil, err
		}
	}
	ev, err := checkExpect(e)
	if err != nil {
		return nil, nil, err
	}
	return divs, append(violations, ev...), nil
}

// SweepCorpus runs every corpus entry through CheckScenario, fanning
// out over cfg.Workers and aggregating in index order (the summary is
// identical at every worker count, like Sweep).
func SweepCorpus(entries []scenario.Entry, cfg SweepConfig) (*Summary, error) {
	oracles := cfg.Oracles
	if oracles == nil {
		oracles = DefaultOracles()
	}
	// The corpus fingerprint covers the entry names, so a resumed sweep
	// over a changed corpus is refused instead of mixing cases.
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	fp := sweepFingerprint("corpus", cfg, len(entries)) + ",entries=" + strings.Join(names, ";")
	outs, _, err := trials.DurableWorker(cfg.Durable, "conf-corpus", fp,
		cfg.Workers, len(entries), cfg.Metrics,
		func(worker, i int) (caseOutcome, error) {
			divs, violations, err := CheckScenario(entries[i], oracles)
			if err != nil {
				return caseOutcome{}, fmt.Errorf("corpus %s: %w", entries[i].Name(), err)
			}
			return caseOutcome{Divs: divs, Violations: violations}, nil
		})
	if err != nil {
		return nil, err
	}
	sum := &Summary{}
	for i, o := range outs {
		if entries[i].Scenario.IsAsync() {
			sum.AsyncCases++
		} else {
			sum.SyncCases++
		}
		sum.Divergences = append(sum.Divergences, o.Divs...)
		sum.Violations = append(sum.Violations, o.Violations...)
	}
	return sum, nil
}

// FailFunc reports whether a candidate scenario still exhibits the
// failure being minimized.
type FailFunc func(scenario.Scenario) bool

// MinimizeScenario greedily shrinks a failing scenario to a local
// minimum: it strips expectations, trials, engine pins, and chaos,
// neutralizes the adversary and workload, caps rounds, zeroes the seed,
// and walks n (then t) up from the smallest value that still fails —
// repeating to a fixpoint. Every candidate is re-validated and re-tested
// through fails, so the result is always a valid scenario that fails.
func MinimizeScenario(s scenario.Scenario, fails FailFunc) scenario.Scenario {
	ns, err := s.Normalized()
	if err != nil {
		return s
	}
	s = ns
	try := func(cand scenario.Scenario) bool {
		nc, err := cand.Normalized()
		if err != nil || !fails(nc) {
			return false
		}
		s = nc
		return true
	}
	for changed := true; changed; {
		changed = false
		if s.Trials != 1 || s.Expect.Any() {
			c := s
			c.Trials = 1
			c.Expect = scenario.Expect{}
			changed = try(c) || changed
		}
		if s.Engine != "" {
			c := s
			c.Engine = ""
			changed = try(c) || changed
		}
		if s.Chaos != "" {
			c := s
			c.Chaos, c.FaultBudget = "", 0
			changed = try(c) || changed
		}
		neutralAdv := synran.AdversaryNone
		if s.IsAsync() {
			neutralAdv = "fifo"
		}
		if s.Adversary != neutralAdv {
			c := s
			c.Adversary = neutralAdv
			if c.Chaos == "" {
				// A bare fault budget is only valid with an omission
				// adversary; drop it alongside the adversary.
				c.FaultBudget = 0
			}
			changed = try(c) || changed
		}
		if s.Workload != "half" {
			c := s
			c.Workload = "half"
			changed = try(c) || changed
		}
		if s.MaxRounds == 0 || s.MaxRounds > 16 {
			c := s
			c.MaxRounds = 16
			if !try(c) {
				c.MaxRounds = 32
				changed = try(c) || changed
			} else {
				changed = true
			}
		}
		for n := 3; n < s.N; n++ {
			c := s
			c.N = n
			c.T = clampT(c, n)
			clampBudget(&c)
			if try(c) {
				changed = true
				break
			}
		}
		for t := 0; t < s.T; t++ {
			c := s
			c.T = t
			clampBudget(&c)
			if try(c) {
				changed = true
				break
			}
		}
		if s.Seed != 0 {
			c := s
			c.Seed = 0
			changed = try(c) || changed
		}
	}
	return s
}

// clampBudget keeps an omission scenario's fault budget <= t when
// minimization shrinks t under it.
func clampBudget(s *scenario.Scenario) {
	if scenario.IsOmission(s.Adversary) && s.FaultBudget > s.T {
		s.FaultBudget = s.T
	}
}

// clampT keeps the crash budget inside the resilience condition when
// minimization shrinks n under it.
func clampT(s scenario.Scenario, n int) int {
	return min(s.T, scenario.Faults(s.Protocol).MaxT(n))
}

// WriteRepro writes a minimized failing scenario into dir as
// <name>.scenario, headed by the finding (as comments) and a
// ready-to-run repro line — the format the fuzzer uses to grow the
// corpus with every divergence it finds. Returns the file path.
func WriteRepro(dir, name string, s scenario.Scenario, finding string) (string, error) {
	text, err := scenario.Format(s)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".scenario")
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(finding, "\n"), "\n") {
		fmt.Fprintf(&b, "# finding: %s\n", strings.TrimSpace(line))
	}
	fmt.Fprintf(&b, "# repro: %s\n", expectRepro(path))
	b.WriteString(text)
	// Atomic: a crash mid-write must not leave a torn .scenario in the
	// corpus for the next sweep to choke on.
	if err := journal.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, b.String())
		return err
	}); err != nil {
		return "", err
	}
	return path, nil
}
