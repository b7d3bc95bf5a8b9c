package conformance

import (
	"fmt"
	"hash/fnv"
	"testing"

	"synran"
	"synran/internal/scenario"
)

// fuzzPrep clamps a parsed scenario into the fuzzable envelope:
// expectations and trial counts are stripped (a mutated assertion is
// not an engine divergence), rounds are capped so no mutant runs long,
// and combinations the differential harness cannot drive cheaply are
// rejected. ok=false means skip the input.
func fuzzPrep(s scenario.Scenario) (scenario.Scenario, bool) {
	s.Expect = scenario.Expect{}
	s.Trials = 1
	if s.MaxRounds == 0 || s.MaxRounds > 64 {
		s.MaxRounds = 64
	}
	if s.N > 12 {
		return s, false
	}
	if s.Chaos != "" {
		// Chaos scenarios have no differential lanes; outcome-lane-only
		// fuzzing finds nothing the sync lanes would not.
		return s, false
	}
	if s.Adversary == synran.AdversaryLowerBound || s.Adversary == synran.AdversaryStepwise {
		// Look-ahead adversaries Monte-Carlo the whole future per round —
		// too slow for a fuzz executor.
		return s, false
	}
	ns, err := s.Normalized()
	if err != nil {
		return s, false
	}
	return ns, true
}

// scenarioFindings runs every applicable conformance lane over the
// scenario and flattens divergences and violations into one list. A
// harness error (an engine rejecting the combination outright, e.g.
// phaseking outside n > 4t) is not a finding.
func scenarioFindings(s scenario.Scenario) []string {
	divs, violations, err := CheckScenario(scenario.Entry{Path: "fuzz.scenario", Scenario: s}, nil)
	if err != nil {
		return nil
	}
	out := append([]string(nil), violations...)
	for _, d := range divs {
		out = append(out, d.String())
	}
	return out
}

// FuzzScenario is the coverage-guided divergence hunter: seeded with
// the checked-in corpus, it mutates scenario files, runs every mutant
// that parses through the full differential harness, and — on a finding
// — greedily minimizes the mutant and writes it into testdata/corpus as
// a ready-to-run repro, growing the corpus with every divergence class
// it discovers.
func FuzzScenario(f *testing.F) {
	if entries, err := scenario.LoadDir(corpusDir); err == nil {
		for _, e := range entries {
			if text, err := scenario.Format(e.Scenario); err == nil {
				f.Add([]byte(text))
			}
		}
	}
	// A few shapes the corpus does not cover, to steer early mutation.
	f.Add([]byte("protocol = benor\nadversary = splitvote\nworkload = ones\nn = 4\nt = 2\nseed = 13\n"))
	f.Add([]byte("protocol = phaseking\nadversary = equivocator\nworkload = half\nn = 5\nt = 1\nseed = 2\n"))
	f.Add([]byte("protocol = async-benor\nadversary = random\ncoin = random\nworkload = half\nn = 7\nt = 3\nseed = 5\n"))
	f.Add([]byte("protocol = floodset\nadversary = waves\nworkload = half\nn = 6\nt = 2\nseed = 8\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := scenario.Parse(data)
		if err != nil {
			return // not a scenario; parsing itself is fuzzed by the codec tests
		}
		s, ok := fuzzPrep(parsed)
		if !ok {
			return
		}
		findings := scenarioFindings(s)
		if len(findings) == 0 {
			return
		}
		min := MinimizeScenario(s, func(c scenario.Scenario) bool {
			cc, ok := fuzzPrep(c)
			return ok && len(scenarioFindings(cc)) > 0
		})
		text, _ := scenario.Format(min)
		h := fnv.New32a()
		h.Write([]byte(text))
		name := fmt.Sprintf("fuzz-%08x", h.Sum32())
		path, werr := WriteRepro(corpusDir, name, min, findings[0])
		if werr != nil {
			path = fmt.Sprintf("(WriteRepro failed: %v)", werr)
		}
		t.Errorf("divergence found and minimized into %s:\n%s\nfirst finding:\n%s",
			path, text, findings[0])
	})
}
