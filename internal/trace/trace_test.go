package trace

import (
	"bytes"
	"strings"
	"testing"

	"synran/internal/adversary"
	"synran/internal/core"
	"synran/internal/workload"
)

func record(t *testing.T, seed uint64) *Log {
	t.Helper()
	const n = 12
	rec := NewRecorder(n, n/2, seed)
	_, err := core.Run(core.RunSpec{
		N: n, T: n / 2,
		Inputs:    workload.HalfHalf(n),
		Seed:      seed,
		Adversary: &adversary.Random{PerRound: 0.6},
		Observer:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Log()
}

func TestRecorderCapturesEvents(t *testing.T) {
	l := record(t, 7)
	kinds := map[string]int{}
	for _, ev := range l.Events {
		kinds[ev.Kind]++
	}
	if kinds["round"] == 0 || kinds["decide"] == 0 || kinds["halt"] == 0 {
		t.Fatalf("missing event kinds: %v", kinds)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := record(t, 7)
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(l, back); d != "" {
		t.Fatalf("round trip diverged: %s", d)
	}
}

func TestDiffDetectsDivergence(t *testing.T) {
	a := record(t, 7)
	b := record(t, 8)
	if d := Diff(a, a); d != "" {
		t.Fatalf("self-diff: %s", d)
	}
	if d := Diff(a, b); d == "" {
		t.Fatal("different seeds produced identical traces (or Diff is blind)")
	}
}

func TestReplayReproducesTrace(t *testing.T) {
	a := record(t, 42)
	b := record(t, 42)
	if d := Diff(a, b); d != "" {
		t.Fatalf("replay diverged: %s", d)
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRecorderStampsSchemaVersion(t *testing.T) {
	l := record(t, 7)
	if l.Version != SchemaVersion {
		t.Fatalf("recorded version %d, want %d", l.Version, SchemaVersion)
	}
}

func TestReadJSONValidatesSchema(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"missing version", `{"n":4,"t":1,"seed":1,"events":[]}`, "missing schema version"},
		{"future version", `{"version":99,"n":4,"t":1,"seed":1,"events":[]}`, "newer than this build"},
		{"stale version", `{"version":1,"n":4,"t":1,"seed":1,"events":[]}`, "no longer supported"},
		{"v2 version", `{"version":2,"n":4,"t":1,"seed":1,"events":[]}`, "no longer supported"},
		{"bad n", `{"version":3,"n":0,"t":0,"seed":1,"events":[]}`, "n=0"},
		{"bad t", `{"version":3,"n":4,"t":9,"seed":1,"events":[]}`, "t=9"},
		{"unknown kind", `{"version":3,"n":4,"t":1,"seed":1,"events":[{"kind":"explode","round":1}]}`, "unknown kind"},
		{"bad round", `{"version":3,"n":4,"t":1,"seed":1,"events":[{"kind":"round","round":0}]}`, "round 0"},
		{"proc out of range", `{"version":3,"n":4,"t":1,"seed":1,"events":[{"kind":"crash","round":1,"proc":7}]}`, "proc 7"},
		{"send proc out of range", `{"version":3,"n":4,"t":1,"seed":1,"events":[{"kind":"send","round":1,"proc":4,"payload":1}]}`, "proc 4"},
	}
	for _, c := range cases {
		_, err := ReadJSON(strings.NewReader(c.doc))
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestDiffHeaderMismatch(t *testing.T) {
	a := &Log{N: 4, T: 1, Seed: 1}
	b := &Log{N: 5, T: 1, Seed: 1}
	if d := Diff(a, b); !strings.Contains(d, "headers differ") {
		t.Fatalf("diff = %q", d)
	}
	c := &Log{N: 4, T: 1, Seed: 1, Events: []Event{{Kind: "round", Round: 1}}}
	if d := Diff(a, c); !strings.Contains(d, "event counts differ") {
		t.Fatalf("diff = %q", d)
	}
}

// TestFirstDiffLocalizesFirstDivergence checks the index and renderings
// FirstDiff reports: a differing event, a log that is a prefix of the
// other, and identical logs.
func TestFirstDiffLocalizesFirstDivergence(t *testing.T) {
	a := NewRecorder(4, 1, 1)
	b := NewRecorder(4, 1, 1)
	for _, r := range []*Recorder{a, b} {
		r.OnCrash(1, 3, 2)
		r.OnDecide(2, 0, 1)
	}
	a.OnHalt(3, 0)
	b.OnHalt(3, 1)
	idx, av, bv := FirstDiff(a.Log(), b.Log())
	if idx != 2 {
		t.Fatalf("first divergent index = %d, want 2", idx)
	}
	if av == bv {
		t.Fatalf("renderings must differ: %q vs %q", av, bv)
	}
	b.Log().Events[2] = a.Log().Events[2]
	b.OnHalt(4, 2)
	idx, av, bv = FirstDiff(a.Log(), b.Log())
	if idx != 3 || !strings.Contains(av, "events") {
		t.Fatalf("length mismatch must diverge at the shorter log's end: idx=%d a=%q b=%q", idx, av, bv)
	}
	b.Log().Events = b.Log().Events[:3]
	if idx, _, _ := FirstDiff(a.Log(), b.Log()); idx != -1 {
		t.Fatalf("identical logs must not diverge (idx=%d)", idx)
	}
}
