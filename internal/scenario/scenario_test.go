package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func writeFile(dir, name, text string) error {
	return os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644)
}

func boolp(b bool) *bool { return &b }
func intp(n int) *int    { return &n }

// roundTripScenarios is the corpus of normalized scenarios the codec
// properties run over: every protocol family, boundary n/t, engine and
// chaos variants, and expectation assertions.
func roundTripScenarios() []Scenario {
	return []Scenario{
		{Protocol: "synran", Adversary: "none", Workload: "half", N: 5, T: 2, Trials: 1},
		{Protocol: "synran", Adversary: "splitvote", Workload: "half", N: 3, T: 1, Seed: 42, Trials: 1},
		{Protocol: "synran", Adversary: "none", Workload: "zeros", N: 3, T: 0, Trials: 1},
		{Protocol: "benor", Adversary: "masscrash", Workload: "ones", N: 9, T: 4, Seed: 7, Trials: 10},
		{Protocol: "floodset", Adversary: "waves", Workload: "random", N: 7, T: 3, Seed: 1, Trials: 1, MaxRounds: 32},
		{Protocol: "leadercoin", Adversary: "leaderkiller", Workload: "half", N: 9, T: 4, Trials: 1, Engine: "soa"},
		{Protocol: "earlystop", Adversary: "random", Workload: "half", N: 6, T: 2, Trials: 1,
			Chaos: "drop=0.1", FaultBudget: 2, Engine: "object"},
		{Protocol: "phaseking", Adversary: "equivocator", Workload: "half", N: 9, T: 2, Trials: 1},
		{Protocol: "synran", Adversary: "lowerbound", Workload: "half", N: 5, T: 4, Seed: 3, Trials: 1, MaxRounds: 64},
		{Protocol: "synran", Adversary: "none", Workload: "half", N: 9, T: 3, Trials: 1,
			Chaos: "drop=0.05", FaultBudget: 3},
		{Protocol: "synran", Adversary: "none", Workload: "half", N: 5, T: 2, Trials: 1,
			Chaos: "none"},
		{Protocol: "benor", Adversary: "none", Workload: "half", N: 5, T: 2, Trials: 2,
			Chaos: "drop=1", FaultBudget: 2},
		{Protocol: "synran", Adversary: "none", Workload: "half", N: 5, T: 2, Trials: 1,
			Expect: Expect{Agreement: boolp(true), Validity: boolp(true), Rounds: 30}},
		{Protocol: "synran", Adversary: "push0", Workload: "zeros", N: 5, T: 2, Trials: 3,
			Expect: Expect{Decided: intp(0), Partial: boolp(false)}},
		{Protocol: "async-benor", Adversary: "fifo", Coin: "random", Workload: "half", N: 5, T: 2, Trials: 1},
		{Protocol: "async-benor", Adversary: "splitter", Coin: "random", Workload: "half", N: 5, T: 2, Seed: 9, Trials: 1, MaxRounds: 4000},
		{Protocol: "async-benor", Adversary: "fifo", Coin: "parity", Workload: "half", N: 4, T: 1, Trials: 1,
			Expect: Expect{Partial: boolp(true)}},
		{Protocol: "async-benor", Adversary: "syncround", Coin: "random", Workload: "zeros", N: 3, T: 1, Trials: 1},
	}
}

// TestRoundTrip is the codec property: for every normalized scenario,
// Format is parseable and Parse(Format(s)) == s — struct-equal and,
// applying Format again, byte-identical.
func TestRoundTrip(t *testing.T) {
	for _, s := range roundTripScenarios() {
		ns, err := s.Normalized()
		if err != nil {
			t.Fatalf("corpus scenario %+v invalid: %v", s, err)
		}
		text, err := Format(ns)
		if err != nil {
			t.Fatalf("Format(%+v): %v", ns, err)
		}
		back, err := Parse([]byte(text))
		if err != nil {
			t.Fatalf("Parse(Format(%+v)) = %v\ntext:\n%s", ns, err, text)
		}
		if !reflect.DeepEqual(back, ns) {
			t.Errorf("round trip drift:\n got %+v\nwant %+v\ntext:\n%s", back, ns, text)
		}
		again, err := Format(back)
		if err != nil {
			t.Fatalf("Format(Parse(Format)): %v", err)
		}
		if again != text {
			t.Errorf("Format not byte-stable:\n first:\n%s\n second:\n%s", text, again)
		}
	}
}

// TestCompactRoundTrip: the one-line form inverts exactly, including
// chaos specs, whose values hold an '=' of their own.
func TestCompactRoundTrip(t *testing.T) {
	for _, s := range roundTripScenarios() {
		ns, err := s.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		spec, err := Compact(ns)
		if err != nil {
			t.Fatalf("Compact(%+v): %v", ns, err)
		}
		if strings.Contains(spec, "\n") {
			t.Fatalf("Compact produced a multi-line spec: %q", spec)
		}
		back, err := ParseCompact(spec)
		if err != nil {
			t.Fatalf("ParseCompact(%q): %v", spec, err)
		}
		if !reflect.DeepEqual(back, ns) {
			t.Errorf("compact drift for %q:\n got %+v\nwant %+v", spec, back, ns)
		}
	}
}

func TestCompactChaosEncoding(t *testing.T) {
	s := Scenario{N: 5, Chaos: "DROP = 0.1", FaultBudget: 2}
	spec, err := Compact(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(spec, ",chaos=drop=0.1,") {
		t.Fatalf("chaos not written in its canonical form: %q", spec)
	}
	back, err := ParseCompact(spec)
	if err != nil {
		t.Fatal(err)
	}
	if back.Chaos != "drop=0.1" {
		t.Fatalf("ParseCompact(%q).Chaos = %q, want drop=0.1", spec, back.Chaos)
	}
}

// TestNormalizeDefaults pins every defaulting rule.
func TestNormalizeDefaults(t *testing.T) {
	s := Scenario{N: 9, T: -1}
	s.Normalize()
	want := Scenario{Protocol: "synran", Adversary: "none", Workload: "half", N: 9, T: 4, Trials: 1}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("sync defaults: got %+v want %+v", s, want)
	}

	a := Scenario{Protocol: "async-benor", N: 5, T: -1}
	a.Normalize()
	wantA := Scenario{Protocol: "async-benor", Adversary: "fifo", Coin: "random",
		Workload: "half", N: 5, T: 2, Trials: 1}
	if !reflect.DeepEqual(a, wantA) {
		t.Errorf("async defaults: got %+v want %+v", a, wantA)
	}

	pk := Scenario{Protocol: "phaseking", N: 9, T: -1}
	pk.Normalize()
	if pk.T != 2 {
		t.Errorf("phaseking default t: got %d want 2 ((n-1)/4)", pk.T)
	}

	// Chaos canonicalization: equivalent specs converge, zero-equivalent
	// non-empty specs become "none", "" stays "".
	c := Scenario{N: 5, Chaos: " DROP=0.05 , "}
	c.Normalize()
	if c.Chaos != "drop=0.05" {
		t.Errorf("chaos canonicalization: got %q want %q", c.Chaos, "drop=0.05")
	}
	z := Scenario{N: 5, Chaos: "drop=0"}
	z.Normalize()
	if z.Chaos != "none" {
		t.Errorf("zero chaos: got %q want %q", z.Chaos, "none")
	}
	e := Scenario{N: 5}
	e.Normalize()
	if e.Chaos != "" {
		t.Errorf("empty chaos must stay empty (no injector), got %q", e.Chaos)
	}
}

// TestParseRejections pins the full validation error message set: the
// scenario surface subsumes the old per-binary flag checks, and these
// strings are its contract.
func TestParseRejections(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{"missing n", "protocol = synran\n", `scenario: missing required key "n"`},
		{"zero n", "n = 0\n", "scenario: n = 0, want > 0"},
		{"t over n", "n = 5\nt = 7\n", "scenario: t = 7 out of [0, 5]"},
		{"bad protocol", "n = 5\nprotocol = paxos\n",
			`scenario: synran: unknown protocol "paxos" (want synran|benor|floodset|leadercoin|earlystop|phaseking|omitflood|latebeacon) (or "async-benor")`},
		{"bad adversary", "n = 5\nadversary = byzantine\n",
			`scenario: synran: unknown adversary "byzantine" (want none|random|splitvote|masscrash|push0|push1|lowerbound|waves|leaderkiller|equivocator|stepwise|omission-split|omission-random|late-split|late-random)`},
		{"near-miss omission", "n = 5\nadversary = omission\n",
			`scenario: synran: unknown adversary "omission" (want none|random|splitvote|masscrash|push0|push1|lowerbound|waves|leaderkiller|equivocator|stepwise|omission-split|omission-random|late-split|late-random)`},
		{"near-miss late", "n = 5\nadversary = late\n",
			`scenario: synran: unknown adversary "late" (want none|random|splitvote|masscrash|push0|push1|lowerbound|waves|leaderkiller|equivocator|stepwise|omission-split|omission-random|late-split|late-random)`},
		{"near-miss late-epsilon", "n = 5\nadversary = lateε\n",
			`scenario: synran: unknown adversary "lateε" (want none|random|splitvote|masscrash|push0|push1|lowerbound|waves|leaderkiller|equivocator|stepwise|omission-split|omission-random|late-split|late-random)`},
		{"omission budget over t", "n = 9\nt = 3\nadversary = omission-split\nfaultbudget = 4\n",
			"scenario: faultbudget = 4 exceeds t = 3 (omission demotions count toward the resilience condition)"},
		{"sync coin", "n = 5\ncoin = parity\n",
			`scenario: coin = "parity" applies only to protocol "async-benor"`},
		{"bad workload", "n = 5\nworkload = storm\n",
			"scenario: unknown workload \"storm\" (want zeros|ones|half|random)"},
		{"bad engine", "n = 5\nengine = turbo\n",
			`scenario: sim: unknown engine "turbo" (want "object" or "soa")`},
		{"bad chaos", "n = 5\nchaos = flood=1\n",
			`scenario: chaos: unknown key "flood" (want drop)`},
		{"negative faultbudget", "n = 5\nchaos = drop=0.1\nfaultbudget = -1\n",
			"scenario: faultbudget = -1, want >= 0"},
		{"byzantine chaos", "n = 5\nadversary = equivocator\nchaos = drop=0.1\n",
			`scenario: chaos needs a crash or omission adversary, not the Byzantine "equivocator"`},
		{"budget without chaos", "n = 5\nfaultbudget = 2\n",
			"scenario: faultbudget = 2 needs a chaos schedule or an omission adversary"},
		{"negative maxrounds", "n = 5\nmaxrounds = -1\n",
			"scenario: maxrounds = -1, want >= 0"},
		{"bad expect.decided", "n = 5\nexpect.decided = 2\n",
			"scenario: expect.decided = 2, want 0 or 1"},
		{"negative expect.rounds", "n = 5\nexpect.rounds = -1\n",
			"scenario: expect.rounds = -1, want >= 0"},
		{"async bad scheduler", "n = 5\nprotocol = async-benor\nadversary = splitvote\n",
			`scenario: unknown async scheduler "splitvote" (want fifo|random|splitter|syncround)`},
		{"async bad coin", "n = 5\nprotocol = async-benor\ncoin = weighted\n",
			"scenario: unknown coin \"weighted\" (want random|parity)"},
		{"async resilience", "n = 4\nprotocol = async-benor\nt = 2\n",
			"scenario: async-benor needs 2t < n, got n = 4, t = 2"},
		{"async engine", "n = 5\nprotocol = async-benor\nengine = soa\n",
			`scenario: engine/chaos/faultbudget do not apply to protocol "async-benor"`},
		{"async chaos", "n = 5\nprotocol = async-benor\nchaos = drop=0.1\n",
			`scenario: engine/chaos/faultbudget do not apply to protocol "async-benor"`},
		{"no equals", "n = 5\nbogus\n", `scenario: line 2: want key = value, got "bogus"`},
		{"duplicate key", "n = 5\nn = 6\n", `scenario: line 2: duplicate key "n"`},
		{"unknown key", "n = 5\nfrobnicate = 1\n", `scenario: line 2: unknown key "frobnicate"`},
		{"bad int", "n = x\n", `scenario: line 1: n = "x": not an integer`},
		{"bad seed", "n = 5\nseed = -1\n", `scenario: line 2: seed = "-1": not an unsigned integer`},
		{"bad bool", "n = 5\nexpect.agreement = yes\n", `scenario: line 2: expect.agreement = "yes": want true or false`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.text))
			if err == nil {
				t.Fatalf("Parse accepted:\n%s", tc.text)
			}
			if err.Error() != tc.want {
				t.Errorf("error drift:\n got %q\nwant %q", err.Error(), tc.want)
			}
		})
	}
}

func TestParseComments(t *testing.T) {
	s, err := Parse([]byte("# a comment\n\nprotocol = benor\n  n = 5  \n\n# trailing\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Protocol != "benor" || s.N != 5 || s.T != 2 {
		t.Errorf("got %+v", s)
	}
}

func TestLoadDirOrder(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) {
		if err := writeFile(dir, name, text); err != nil {
			t.Fatal(err)
		}
	}
	write("b.scenario", "n = 5\n")
	write("a.scenario", "n = 3\n")
	write("ignored.txt", "not a scenario")
	entries, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != "a" || entries[1].Name() != "b" {
		t.Fatalf("got %+v", entries)
	}
	if entries[0].Scenario.N != 3 {
		t.Errorf("a.scenario: %+v", entries[0].Scenario)
	}
}

func TestCheckExpect(t *testing.T) {
	s := Scenario{N: 5, Expect: Expect{
		Agreement: boolp(true), Decided: intp(1), Rounds: 10, Partial: boolp(false)}}
	ok := Outcome{Agreement: true, Validity: true, Decided: 1, Rounds: 8}
	if v := s.CheckExpect(ok); v != nil {
		t.Errorf("clean outcome flagged: %v", v)
	}
	bad := Outcome{Agreement: false, Decided: 0, Rounds: 12, Partial: true}
	v := s.CheckExpect(bad)
	want := []string{
		"expect.agreement = true, got false",
		"expect.decided = 1, got 0",
		"expect.rounds <= 10, got 12",
		"expect.partial = false, got true",
	}
	if !reflect.DeepEqual(v, want) {
		t.Errorf("violations:\n got %q\nwant %q", v, want)
	}
}
