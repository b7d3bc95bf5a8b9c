package conformance

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"synran/internal/scenario"
)

const corpusDir = "../../testdata/corpus"

func loadCorpus(t testing.TB) []scenario.Entry {
	t.Helper()
	entries, err := scenario.LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 10 {
		t.Fatalf("corpus too small: %d entries", len(entries))
	}
	return entries
}

// TestCorpusSweepClean is the corpus's contract: every checked-in
// scenario passes the full differential harness — no divergences, no
// oracle violations, every expectation met.
func TestCorpusSweepClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every corpus entry through all lanes")
	}
	entries := loadCorpus(t)
	sum, err := SweepCorpus(entries, SweepConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range sum.Divergences {
		t.Errorf("divergence: %s", d)
	}
	for _, v := range sum.Violations {
		t.Errorf("violation: %s", v)
	}
	if sum.SyncCases+sum.AsyncCases != len(entries) {
		t.Errorf("case accounting: %d sync + %d async != %d entries",
			sum.SyncCases, sum.AsyncCases, len(entries))
	}
}

// TestCorpusWorkerInvariance pins the corpus sweep's aggregation order:
// byte-identical findings at 1, 4, and all-cores workers.
func TestCorpusWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the corpus three times")
	}
	entries := loadCorpus(t)
	var sums []*Summary
	for _, workers := range []int{1, 4, 0} {
		sum, err := SweepCorpus(entries, SweepConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sums = append(sums, sum)
	}
	render := func(s *Summary) string {
		var b strings.Builder
		for _, d := range s.Divergences {
			b.WriteString(d.String() + "\n")
		}
		for _, v := range s.Violations {
			b.WriteString(v + "\n")
		}
		return b.String()
	}
	for i := 1; i < len(sums); i++ {
		if sums[i].SyncCases != sums[0].SyncCases || sums[i].AsyncCases != sums[0].AsyncCases ||
			render(sums[i]) != render(sums[0]) {
			t.Fatalf("worker-count dependent corpus sweep:\n%+v\nvs\n%+v", sums[0], sums[i])
		}
	}
}

// TestCorpusFormatsParse: every corpus file parses, and its canonical
// rendering re-parses to the same scenario (files may carry comments,
// so the bytes differ but the value must not).
func TestCorpusFormatsParse(t *testing.T) {
	for _, e := range loadCorpus(t) {
		text, err := scenario.Format(e.Scenario)
		if err != nil {
			t.Errorf("%s: Format: %v", e.Name(), err)
			continue
		}
		back, err := scenario.Parse([]byte(text))
		if err != nil {
			t.Errorf("%s: reparse: %v", e.Name(), err)
			continue
		}
		if again, _ := scenario.Format(back); again != text {
			t.Errorf("%s: canonical form unstable:\n%s\nvs\n%s", e.Name(), text, again)
		}
	}
}

// TestFromScenarioRoundTrip: Case -> Scenario -> Case is the identity
// on everything a scenario can express.
func TestFromScenarioRoundTrip(t *testing.T) {
	c := Case{Protocol: "benor", Adversary: "splitvote", Workload: "ones",
		N: 9, T: 4, Seed: 77, Engine: "soa", MaxRounds: 64}
	c.normalize()
	back, err := FromScenario(c.Scenario())
	if err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Fatalf("round trip drift:\n in : %+v\n out: %+v", c, back)
	}
	if _, err := FromScenario(scenario.Scenario{Protocol: "async-benor", Adversary: "fifo", N: 5}); err == nil {
		t.Fatal("async scenario must not convert to a sync Case")
	}
	if _, err := FromScenario(scenario.Scenario{N: 5, Chaos: "none"}); err == nil {
		t.Fatal("chaos scenario must not convert to a sync Case")
	}
}

// TestMinimizeScenarioInjected seeds a synthetic divergence predicate
// (the role CheckScenario findings play in FuzzScenario) and checks the
// minimizer walks a large, heavily decorated scenario down to the
// smallest configuration that still triggers it — then writes it as a
// ready-to-run corpus repro.
func TestMinimizeScenarioInjected(t *testing.T) {
	start := scenario.Scenario{
		Protocol: "benor", Adversary: "splitvote", Workload: "random",
		N: 9, T: 4, Seed: 77, Engine: "soa", MaxRounds: 200, Trials: 5,
		Expect: scenario.Expect{Rounds: 50},
	}
	// The injected divergence: any Ben-Or run with at least 6 processes.
	injected := func(s scenario.Scenario) bool {
		return s.Protocol == "benor" && s.N >= 6
	}
	min := MinimizeScenario(start, injected)
	want, err := scenario.Scenario{Protocol: "benor", N: 6, T: 0, MaxRounds: 16}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if min != want {
		t.Fatalf("minimized to %+v, want %+v", min, want)
	}
	if !injected(min) {
		t.Fatal("minimized scenario no longer fails")
	}

	dir := t.TempDir()
	path, err := WriteRepro(dir, "injected-divergence", min, "benor lanes diverge\n  repro: (minimized)")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, "# finding: benor lanes diverge") ||
		!strings.Contains(text, "# repro: go run ./cmd/conformance -scenario "+path) {
		t.Fatalf("repro header missing:\n%s", text)
	}
	back, err := scenario.LoadFile(path)
	if err != nil {
		t.Fatalf("repro file does not load: %v", err)
	}
	if back != min {
		t.Fatalf("repro file drift: %+v vs %+v", back, min)
	}
	if filepath.Ext(path) != ".scenario" {
		t.Fatalf("repro path %q must be a .scenario file", path)
	}
}

// TestMinimizeScenarioKeepsValidity: every candidate the minimizer
// accepts must be a valid scenario, even when the failure predicate
// would accept invalid ones.
func TestMinimizeScenarioKeepsValidity(t *testing.T) {
	start := scenario.Scenario{Protocol: "async-benor", Adversary: "splitter",
		Workload: "random", N: 11, T: 5, Seed: 9}
	min := MinimizeScenario(start, func(s scenario.Scenario) bool {
		return s.IsAsync() && s.N >= 4
	})
	if _, err := min.Normalized(); err != nil {
		t.Fatalf("minimizer produced an invalid scenario %+v: %v", min, err)
	}
	if min.N != 4 {
		t.Errorf("expected n minimized to 4, got %+v", min)
	}
	if 2*min.T >= min.N {
		t.Errorf("async resilience violated by minimizer: %+v", min)
	}
}

// TestCheckScenarioExpectViolation: a corpus entry whose expectation
// contradicts the deterministic outcome must surface as a violation
// with the -scenario repro line.
func TestCheckScenarioExpectViolation(t *testing.T) {
	decided := 1 // synran-clean at seed 1 decides 0
	s, err := scenario.Scenario{N: 5, Seed: 1,
		Expect: scenario.Expect{Decided: &decided}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	_, violations, err := CheckScenario(scenario.Entry{Path: "bad.scenario", Scenario: s}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 || !strings.Contains(violations[0], "expect.decided = 1, got 0") ||
		!strings.Contains(violations[0], "-scenario bad.scenario") {
		t.Fatalf("want exactly the expect.decided violation with repro, got %q", violations)
	}
}
