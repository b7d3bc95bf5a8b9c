package experiments

import (
	"bytes"
	"os"
	"testing"

	"synran/internal/metrics"
)

// TestQuickGoldenFile pins the quick suite's exact output: the parallel
// harness must reproduce results/experiments-quick-seed42.txt byte for
// byte, and the metrics collected alongside must reproduce
// results/metrics-quick-seed42.json. A diff here means either a
// deliberate change to an experiment, the RNG discipline, or an
// instrument's emission sites — refresh both files with
//
//	go run ./cmd/synran-bench -quick -seed 42 -workers 8 \
//	    -metrics-out results/metrics-quick-seed42.json > results/experiments-quick-seed42.txt
//
// and review the diff like any other golden update.
func TestQuickGoldenFile(t *testing.T) {
	want, err := os.ReadFile("../../results/experiments-quick-seed42.txt")
	if err != nil {
		t.Fatalf("missing golden file (see comment for the refresh command): %v", err)
	}
	wantMetrics, err := os.ReadFile("../../results/metrics-quick-seed42.json")
	if err != nil {
		t.Fatalf("missing metrics golden (see comment for the refresh command): %v", err)
	}
	eng := metrics.NewEngine(metrics.New(8))
	var got bytes.Buffer
	if err := RunAll(Config{Quick: true, Seed: 42, Workers: 8, Metrics: eng}, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("quick suite output diverged from the golden file at line %q\n(refresh: see the comment above)",
			firstDiffContext(got.Bytes(), want))
	}

	var gotMetrics bytes.Buffer
	if err := eng.Registry().Report(false).WriteJSON(&gotMetrics); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotMetrics.Bytes(), wantMetrics) {
		t.Fatalf("metrics export diverged from the golden file at line %q\n(refresh: see the comment above)",
			firstDiffContext(gotMetrics.Bytes(), wantMetrics))
	}
}
