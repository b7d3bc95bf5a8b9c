package experiments

import (
	"bytes"
	"testing"

	"synran"
	"synran/internal/metrics"
	"synran/internal/workload"
)

// renderAll runs the full quick suite at the given worker count and
// returns the rendered tables followed by the suite's metrics export,
// so the byte comparison below covers both determinism contracts in
// one run.
func renderAll(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	eng := metrics.NewEngine(metrics.New(8))
	if err := RunAll(Config{Quick: true, Seed: 42, Workers: workers, Metrics: eng}, &buf); err != nil {
		t.Fatalf("RunAll(workers=%d): %v", workers, err)
	}
	if err := eng.Registry().Report(false).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunAllWorkerInvariance is the harness's hard guarantee: every
// experiment table — and the metrics report collected alongside — is
// byte-identical whether trials run serially or on an 8-wide pool,
// because all randomness derives from the trial index, never from
// scheduling order.
func TestRunAllWorkerInvariance(t *testing.T) {
	serial := renderAll(t, 1)
	pooled := renderAll(t, 8)
	if !bytes.Equal(serial, pooled) {
		t.Fatalf("quick suite differs between workers=1 and workers=8:\n--- serial ---\n%s\n--- pooled ---\n%s",
			firstDiffContext(serial, pooled), firstDiffContext(pooled, serial))
	}
	again := renderAll(t, 8)
	if !bytes.Equal(pooled, again) {
		t.Fatalf("two workers=8 runs differ:\n%s", firstDiffContext(pooled, again))
	}
}

// firstDiffContext returns the line around the first byte where a and b
// diverge, to keep the failure message readable.
func firstDiffContext(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := bytes.LastIndexByte(a[:i], '\n') + 1
	hi := bytes.IndexByte(a[i:], '\n')
	if hi < 0 {
		hi = len(a)
	} else {
		hi += i
	}
	return string(a[lo:hi])
}

// TestRunCellViolationAttribution drives a cell into a guaranteed safety
// violation (the E5 ablation: symmetric coin, all-1 inputs, 70% mass
// crash of 1-senders) and checks that the error names the cell and its
// first violating trial — and that the attribution is identical at every
// worker count, so a red CI run always points at the same (cell, trial)
// pair. Trials 0 and 1 run the one-side-bias coin, which survives the
// attack, so the first violation is trial 2.
func TestRunCellViolationAttribution(t *testing.T) {
	const n = 64
	run := func(reps, workers int) string {
		seed := stride(42)
		_, err := runSafe(Config{Seed: 42, Workers: workers}, "ablation", reps, nil, func(i int) (synran.Spec, error) {
			protocol := synran.ProtocolBenOr
			if i < 2 {
				protocol = synran.ProtocolSynRan
			}
			return synran.Spec{N: n, T: n - 1, Inputs: workload.Uniform(n, 1), Protocol: protocol,
				Adversary: synran.AdversaryMassCrash, Seed: seed(i)}, nil
		})
		if err == nil {
			t.Fatalf("symmetric-coin ablation did not violate safety (reps=%d workers=%d)", reps, workers)
		}
		return err.Error()
	}

	if got, want := run(3, 1), "ablation trial 2: safety violated"; got != want {
		t.Fatalf("error %q, want %q", got, want)
	}
	// First-by-index determinism: a 6-trial cell blames the same trial at
	// every worker count.
	serial := run(6, 1)
	for _, workers := range []int{2, 8} {
		if pooled := run(6, workers); pooled != serial {
			t.Fatalf("violation attribution depends on worker count: workers=1 %q, workers=%d %q",
				serial, workers, pooled)
		}
	}
}
