package experiments

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"synran/internal/journal"
	"synran/internal/metrics"
	"synran/internal/trials"
)

// quickCells is the number of trial cells each experiment of the quick
// suite runs, each journaled under its own scope. The experiments
// missing from it (E1, E2, E7, E10, E12) run no trial cell: they
// compute inside coinflip and concentration.
var quickCells = map[string]int{
	"E3": 6, "E4": 7, "E5": 14, "E6": 4, "E8": 2, "E9": 2, "E11": 8,
	"E13": 4, "E14": 2, "E15": 6, "E16": 9, "E17": 1, "E18": 4, "E19": 4,
}

// TestRunAllCheckpointResume runs the whole quick suite with every cell
// journaling under one checkpoint directory, then runs it again resuming
// from those journals. Both runs must reproduce the golden tables. The
// first run must leave a journal scope for every cell, unmetered ones
// such as E15's included, and the resumed run must load every shard
// instead of running it: no journal append in any cell, no metered
// trial, and every metered shard the first run journaled counted as
// resumed.
func TestRunAllCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick-suite runs; make soak runs this under -race")
	}
	want, err := os.ReadFile("../../results/experiments-quick-seed42.txt")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	run := func(resume bool) (*metrics.Engine, int64) {
		t.Helper()
		var appends atomic.Int64
		eng := metrics.NewEngine(metrics.New(2))
		cfg := Config{Quick: true, Seed: 42, Workers: 2, Metrics: eng, Durable: trials.Durability{
			Dir: dir, Resume: resume, AppendHook: func(int) { appends.Add(1) },
		}}
		var got bytes.Buffer
		if err := RunAll(cfg, &got); err != nil {
			t.Fatalf("RunAll(resume=%v): %v", resume, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("RunAll(resume=%v) diverged from the golden file at line %q",
				resume, firstDiffContext(got.Bytes(), want))
		}
		return eng, appends.Load()
	}

	first, appended := run(false)
	scopes, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]int{}
	for _, s := range scopes {
		id, _, _ := strings.Cut(s.Name(), "-")
		cells[id]++
	}
	if !reflect.DeepEqual(cells, quickCells) {
		t.Fatalf("first run left journal scopes per experiment %v, want one per cell %v", cells, quickCells)
	}
	journaled := first.ShardsJournaled.Value()
	if journaled == 0 || journaled != first.TrialsRun.Value() {
		t.Fatalf("first run journaled %d metered shards for %d metered trials", journaled, first.TrialsRun.Value())
	}
	if appended < int64(journaled) {
		t.Fatalf("first run appended %d shards in all, fewer than its %d metered ones", appended, journaled)
	}

	resumed, appended := run(true)
	if v := resumed.TrialsRun.Value(); v != 0 {
		t.Fatalf("resumed run ran %d metered trials, want 0", v)
	}
	if appended != 0 {
		t.Fatalf("resumed run appended %d shards, want 0 (some cell did not resume)", appended)
	}
	if v := resumed.ShardsResumed.Value(); v != journaled {
		t.Fatalf("resumed run loaded %d metered shards, want the %d the first run journaled", v, journaled)
	}
}

// TestCheckpointRefusesOtherShardLayout pins the journal-safety contract
// for a sample layout change: a journal written under E17's scope by a
// build whose shards were {Rounds, Crashes} is refused, with or without
// -resume, and never decoded into samples whose Halt is silently zero.
func TestCheckpointRefusesOtherShardLayout(t *testing.T) {
	dir := t.TempDir()
	jl, err := journal.Open(journal.Options{
		Dir:         filepath.Join(dir, journal.Slug("E17-n100000")),
		Fingerprint: "experiment=E17,n=100000,t=99999,seed=42,reps=2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Append(0, []byte(`{"Rounds":31,"Crashes":1200}`)); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		resume bool
		want   error
	}{{false, journal.ErrExists}, {true, journal.ErrFingerprint}} {
		cfg := Config{Quick: true, Seed: 42, Durable: trials.Durability{Dir: dir, Resume: tc.resume}}
		if _, err := E17ScaleSoA(cfg); !errors.Is(err, tc.want) {
			t.Fatalf("resume=%v: E17 over an old-layout journal returned %v, want %v", tc.resume, err, tc.want)
		}
	}
}
