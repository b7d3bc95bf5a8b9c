package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"synran/internal/scenario"
)

// writeScenario formats s into dir/name.scenario and returns the path.
func writeScenario(t *testing.T, dir, name string, s scenario.Scenario) string {
	t.Helper()
	text, err := scenario.Format(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".scenario")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScenarioFlagParity is the acceptance pin of the façade redesign:
// a flag-built run and its Format-ed .scenario file must produce
// byte-identical output, because both travel the same Scenario ->
// SimScenario/AsyncScenario code path.
func TestScenarioFlagParity(t *testing.T) {
	cases := []struct {
		name string
		run  func(w *strings.Builder) error
		scn  func() (scenario.Scenario, error)
	}{
		{"sim-single", func(w *strings.Builder) error {
			return ConsensusSim(defaultSimOpts(), w)
		}, defaultSimOpts().Scenario},
		{"sim-trials", func(w *strings.Builder) error {
			opts := defaultSimOpts()
			opts.Trials = 4
			return ConsensusSim(opts, w)
		}, func() (scenario.Scenario, error) {
			opts := defaultSimOpts()
			opts.Trials = 4
			return opts.Scenario()
		}},
		{"sim-chaos", func(w *strings.Builder) error {
			opts := defaultSimOpts()
			opts.Adversary = "none"
			opts.Chaos = "drop=0.03"
			opts.FaultBudget = 4
			opts.Trials = 3
			return ConsensusSim(opts, w)
		}, func() (scenario.Scenario, error) {
			opts := defaultSimOpts()
			opts.Adversary = "none"
			opts.Chaos = "drop=0.03"
			opts.FaultBudget = 4
			opts.Trials = 3
			return opts.Scenario()
		}},
		{"async", func(w *strings.Builder) error {
			return AsyncSim(AsyncOptions{N: 5, T: -1, Scheduler: "splitter",
				Coin: "random", Workload: "half", Seed: 9, Trials: 3}, w)
		}, AsyncOptions{N: 5, T: -1, Scheduler: "splitter",
			Coin: "random", Workload: "half", Seed: 9, Trials: 3}.Scenario},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fromFlags strings.Builder
			if err := tc.run(&fromFlags); err != nil {
				t.Fatal(err)
			}
			s, err := tc.scn()
			if err != nil {
				t.Fatal(err)
			}
			path := writeScenario(t, t.TempDir(), tc.name, s)
			common := CommonFlags{Scenario: path}
			var fromFile strings.Builder
			if err := RunScenarios(&common, nil, &fromFile); err != nil {
				t.Fatal(err)
			}
			if fromFlags.String() != fromFile.String() {
				t.Fatalf("flag-built and file-built outputs differ:\n--- flags ---\n%s--- file ---\n%s",
					fromFlags.String(), fromFile.String())
			}
		})
	}
}

// TestRunScenariosDir: directory mode runs every entry in name order
// with a banner each, and a failing entry is reported without stopping
// the rest.
func TestRunScenariosDir(t *testing.T) {
	dir := t.TempDir()
	writeScenario(t, dir, "a-sync", scenario.Scenario{N: 5, T: 2, Seed: 1})
	writeScenario(t, dir, "b-async", scenario.Scenario{
		Protocol: scenario.ProtocolAsyncBenOr, N: 5, T: 2, Seed: 1})
	common := CommonFlags{ScenarioDir: dir}
	var sb strings.Builder
	if err := RunScenarios(&common, nil, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "=== a-sync (") || !strings.Contains(out, "=== b-async (") {
		t.Fatalf("banners missing:\n%s", out)
	}
	if strings.Index(out, "a-sync") > strings.Index(out, "b-async") {
		t.Fatalf("entries out of name order:\n%s", out)
	}

	bad := 1 // seed-1 synran at n=5 decides 0
	writeScenario(t, dir, "c-bad", scenario.Scenario{N: 5, T: 2, Seed: 1,
		Expect: scenario.Expect{Decided: &bad}})
	sb.Reset()
	err := RunScenarios(&common, nil, &sb)
	if err == nil || !strings.Contains(err.Error(), "1 of 3 scenarios failed: c-bad") {
		t.Fatalf("want the c-bad failure summary, got %v", err)
	}
	if !strings.Contains(sb.String(), "FAIL expect.decided = 1, got 0") {
		t.Fatalf("violation line missing:\n%s", sb.String())
	}
}

// TestSimScenarioExpectations: a single run against its expectations —
// ok when they hold, an error plus FAIL lines when they do not.
func TestSimScenarioExpectations(t *testing.T) {
	agree := true
	s, err := scenario.Scenario{N: 5, T: 2, Seed: 1,
		Expect: scenario.Expect{Agreement: &agree}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := SimScenario(s, SimOptions{}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "expect        : ok") {
		t.Fatalf("ok line missing:\n%s", sb.String())
	}

	wrong := 1
	s.Expect.Decided = &wrong
	sb.Reset()
	err = SimScenario(s, SimOptions{}, &sb)
	if err == nil || !strings.Contains(err.Error(), "1 expectation(s) violated") {
		t.Fatalf("want an expectation error, got %v", err)
	}
	if !strings.Contains(sb.String(), "expect        : FAIL expect.decided = 1, got 0") {
		t.Fatalf("FAIL line missing:\n%s", sb.String())
	}
}

// TestConformanceScenarioMode drives the conformance core in both
// single-file and directory mode.
func TestConformanceScenarioMode(t *testing.T) {
	dir := t.TempDir()
	path := writeScenario(t, dir, "clean", scenario.Scenario{N: 5, T: 2, Seed: 1})
	var sb strings.Builder
	if err := Conformance(ConformanceOptions{Scenario: path}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"conformance scenario sweep: 1 entries", "sync cases : 1", "all lanes agree"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, sb.String())
		}
	}

	writeScenario(t, dir, "async", scenario.Scenario{
		Protocol: scenario.ProtocolAsyncBenOr, N: 5, T: 2, Seed: 1})
	sb.Reset()
	if err := Conformance(ConformanceOptions{ScenarioDir: dir}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sync cases : 1") || !strings.Contains(sb.String(), "async cases: 1") {
		t.Fatalf("case accounting missing:\n%s", sb.String())
	}

	bad := 1
	writeScenario(t, dir, "zz-bad", scenario.Scenario{N: 5, T: 2, Seed: 1,
		Expect: scenario.Expect{Decided: &bad}})
	sb.Reset()
	err := Conformance(ConformanceOptions{ScenarioDir: dir}, &sb)
	if err == nil || !strings.Contains(sb.String(), "VIOLATION") {
		t.Fatalf("want a rendered violation and an error, got %v:\n%s", err, sb.String())
	}
}

// TestBenchScenarioMode renders the corpus outcome table through the
// bench core.
func TestBenchScenarioMode(t *testing.T) {
	dir := t.TempDir()
	agree := true
	writeScenario(t, dir, "clean", scenario.Scenario{N: 5, T: 2, Seed: 1, Trials: 2,
		Expect: scenario.Expect{Agreement: &agree}})
	writeScenario(t, dir, "async", scenario.Scenario{
		Protocol: scenario.ProtocolAsyncBenOr, N: 5, T: 2, Seed: 1})
	var out, errw strings.Builder
	if err := Bench(BenchOptions{ScenarioDir: dir}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SCN:", "clean", "async"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(errw.String(), "all claims hold") {
		t.Fatalf("claims banner missing:\n%s", errw.String())
	}

	bad := 1
	writeScenario(t, dir, "zz-bad", scenario.Scenario{N: 5, T: 2, Seed: 1,
		Expect: scenario.Expect{Decided: &bad}})
	out.Reset()
	err := Bench(BenchOptions{ScenarioDir: dir}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "zz-bad: expectations hold") {
		t.Fatalf("want the failed claim, got %v", err)
	}
}
