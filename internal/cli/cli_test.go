package cli

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func defaultSimOpts() SimOptions {
	return SimOptions{
		N: 16, T: -1,
		Protocol:  "synran",
		Adversary: "random",
		Workload:  "half",
		Seed:      3,
		Trials:    1,
	}
}

func TestConsensusSimSingleRun(t *testing.T) {
	var sb strings.Builder
	if err := ConsensusSim(defaultSimOpts(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"decided value", "agreement     : true", "validity      : true", "messages"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConsensusSimDigestAndTraceFile(t *testing.T) {
	opts := defaultSimOpts()
	opts.Digest = true
	opts.TraceFile = filepath.Join(t.TempDir(), "trace.json")
	var sb strings.Builder
	if err := ConsensusSim(opts, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digest        :") {
		t.Fatalf("digest line missing:\n%s", sb.String())
	}
	data, err := os.ReadFile(opts.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"events"`) {
		t.Fatal("trace file lacks events")
	}
}

func TestConsensusSimTrials(t *testing.T) {
	opts := defaultSimOpts()
	opts.Trials = 5
	var sb strings.Builder
	if err := ConsensusSim(opts, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trials=5", "rounds   :", "safety   : 0 violations"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, sb.String())
		}
	}
}

func TestConsensusSimBadInputs(t *testing.T) {
	opts := defaultSimOpts()
	opts.Workload = "bogus"
	if err := ConsensusSim(opts, io.Discard); err == nil {
		t.Fatal("bad workload accepted")
	}
	opts = defaultSimOpts()
	opts.Protocol = "bogus"
	if err := ConsensusSim(opts, io.Discard); err == nil {
		t.Fatal("bad protocol accepted")
	}
	opts = defaultSimOpts()
	opts.Adversary = "bogus"
	if err := ConsensusSim(opts, io.Discard); err == nil {
		t.Fatal("bad adversary accepted")
	}
	// Near-miss spellings of the omission/late families must be rejected
	// with an error that names every valid spelling, so the fix is
	// copy-pasteable from the message.
	for _, near := range []string{"omission", "late", "lateε"} {
		opts = defaultSimOpts()
		opts.Adversary = near
		err := ConsensusSim(opts, io.Discard)
		if err == nil {
			t.Fatalf("near-miss adversary %q accepted", near)
		}
		for _, want := range []string{"omission-split", "omission-random", "late-split", "late-random"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("adversary %q: error %q does not name valid spelling %q", near, err, want)
			}
		}
	}
}

func TestConsensusSimReportsValidityViolation(t *testing.T) {
	// The symmetric baseline under the mass crash must surface the
	// violation as an error (exit code 1 in the binary).
	opts := defaultSimOpts()
	opts.N = 64
	opts.Protocol = "benor"
	opts.Adversary = "masscrash"
	opts.Workload = "ones"
	opts.Seed = 7
	err := ConsensusSim(opts, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "safety violated") {
		t.Fatalf("expected a safety-violation error, got %v", err)
	}
}

func TestConsensusSimChaosSingleRun(t *testing.T) {
	opts := defaultSimOpts()
	opts.Adversary = "none"
	opts.Chaos = "drop=0.05"
	opts.FaultBudget = 4
	var sb strings.Builder
	if err := ConsensusSim(opts, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"chaos         :", "faults        : demoted=", "agreement     : true"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, sb.String())
		}
	}
}

func TestConsensusSimChaosStopsAtFaultBudget(t *testing.T) {
	// Every attempt of every message is lost, so each sender would be
	// demoted: the links demote exactly the budget's worth, in index
	// order, and the run still completes safely.
	for _, budget := range []int{0, 2} {
		opts := defaultSimOpts()
		opts.Adversary = "none"
		opts.Chaos = "drop=1"
		opts.FaultBudget = budget
		var sb strings.Builder
		if err := ConsensusSim(opts, &sb); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		for _, want := range []string{"chaos         : drop=1", fmt.Sprintf("demoted=%d\n", budget), "agreement     : true"} {
			if !strings.Contains(sb.String(), want) {
				t.Fatalf("budget %d: output missing %q:\n%s", budget, want, sb.String())
			}
		}
	}
}

func TestConsensusSimChaosTrials(t *testing.T) {
	opts := defaultSimOpts()
	opts.Adversary = "none"
	opts.Chaos = "drop=0.03"
	opts.FaultBudget = 4
	opts.Trials = 4
	var sb strings.Builder
	if err := ConsensusSim(opts, &sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"chaos    : drop=0.03 (fault budget 4)", "faults   : demoted="} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, sb.String())
		}
	}
}

func TestConsensusSimRejectsBadChaosSpec(t *testing.T) {
	opts := defaultSimOpts()
	opts.Chaos = "bogus=1"
	if err := ConsensusSim(opts, io.Discard); err == nil {
		t.Fatal("bad chaos spec accepted")
	}
}

func TestAsyncSimFIFO(t *testing.T) {
	var sb strings.Builder
	err := AsyncSim(AsyncOptions{
		N: 5, T: -1, Scheduler: "fifo", Coin: "random",
		Workload: "half", Seed: 1, Trials: 3,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"terminated : 3/3", "phases", "coin flips"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, sb.String())
		}
	}
}

func TestAsyncSimFLP(t *testing.T) {
	var sb strings.Builder
	err := AsyncSim(AsyncOptions{
		N: 4, T: 1, Scheduler: "splitter", Coin: "parity",
		Workload: "half", Seed: 1, Trials: 2, MaxSteps: 3000,
	}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "FLP schedule, demonstrated") {
		t.Fatalf("FLP banner missing:\n%s", sb.String())
	}
}

func TestAsyncSimValidation(t *testing.T) {
	if err := AsyncSim(AsyncOptions{N: 5, T: -1, Coin: "bogus", Workload: "half"}, io.Discard); err == nil {
		t.Fatal("bad coin accepted")
	}
	if err := AsyncSim(AsyncOptions{N: 5, T: -1, Scheduler: "bogus", Workload: "half"}, io.Discard); err == nil {
		t.Fatal("bad scheduler accepted")
	}
}

func TestBenchSubset(t *testing.T) {
	var out, errw strings.Builder
	err := Bench(BenchOptions{Quick: true, Seed: 42, Only: "E2,E10"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E2:") || !strings.Contains(out.String(), "E10:") {
		t.Fatalf("tables missing:\n%s", out.String())
	}
	if strings.Contains(out.String(), "E3:") {
		t.Fatal("unselected experiment ran")
	}
	if !strings.Contains(errw.String(), "all claims hold") {
		t.Fatalf("success banner missing:\n%s", errw.String())
	}
}

func TestBenchCSV(t *testing.T) {
	var out, errw strings.Builder
	if err := Bench(BenchOptions{Quick: true, Seed: 42, Only: "E2", CSV: true}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "n,t,") {
		t.Fatalf("CSV header missing:\n%s", out.String())
	}
}

func TestBenchMarkdown(t *testing.T) {
	var out, errw strings.Builder
	if err := Bench(BenchOptions{Quick: true, Seed: 42, Only: "E2", Markdown: true}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "| n |") || !strings.Contains(out.String(), "| --- |") {
		t.Fatalf("markdown table missing:\n%s", out.String())
	}
}

func TestBenchUnknownID(t *testing.T) {
	if err := Bench(BenchOptions{Quick: true, Only: "E99"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}
