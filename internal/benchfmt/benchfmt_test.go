package benchfmt

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: synran
cpu: Intel(R) Xeon(R) Platinum 8481C CPU @ 2.70GHz
BenchmarkCloneVsCloneInto/clone-2         	   50000	     17828 ns/op	   19488 B/op	     141 allocs/op
BenchmarkCloneVsCloneInto/cloneinto-2     	  100000	     10348 ns/op	       0 B/op	       0 allocs/op
BenchmarkValencyEstimate/arena-2          	    1200	    878560 ns/op	  117200 B/op	    2993 allocs/op
BenchmarkAblationSplitVoteLevers/full-2   	     100	    123456 ns/op	        14.50 rounds/op
PASS
ok  	synran	12.345s
`

func parseSample(t *testing.T) *Report {
	t.Helper()
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParseHeadersAndLines(t *testing.T) {
	rep := parseSample(t)
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "synran" {
		t.Fatalf("headers: %+v", rep)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Fatalf("cpu: %q", rep.CPU)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("parsed %d results, want 4", len(rep.Results))
	}
	r := rep.Find("BenchmarkCloneVsCloneInto/clone")
	if r == nil {
		t.Fatal("clone result missing (GOMAXPROCS suffix not stripped?)")
	}
	if r.Iterations != 50000 || r.NsPerOp != 17828 || r.BytesPerOp != 19488 || r.AllocsPerOp != 141 {
		t.Fatalf("clone result: %+v", r)
	}
}

func TestParseCustomMetrics(t *testing.T) {
	rep := parseSample(t)
	r := rep.Find("BenchmarkAblationSplitVoteLevers/full")
	if r == nil {
		t.Fatal("custom-metric result missing")
	}
	if got := r.Metrics["rounds/op"]; got != 14.50 {
		t.Fatalf("rounds/op = %v, want 14.5", got)
	}
}

func TestNormalizeName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":           "BenchmarkFoo",
		"BenchmarkFoo/workers-4-2": "BenchmarkFoo/workers-4",
		"BenchmarkFoo":             "BenchmarkFoo",
		"BenchmarkFoo-bar":         "BenchmarkFoo-bar",
		"BenchmarkFoo/sub/deep-16": "BenchmarkFoo/sub/deep",
	}
	for in, want := range cases {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rep := parseSample(t)
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != len(rep.Results) || back.CPU != rep.CPU {
		t.Fatalf("round trip lost data: %+v", back)
	}
	for i := range rep.Results {
		a, b := rep.Results[i], back.Results[i]
		if a.Name != b.Name || a.AllocsPerOp != b.AllocsPerOp || a.NsPerOp != b.NsPerOp {
			t.Fatalf("result %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestCheckAllocs(t *testing.T) {
	baseline := parseSample(t)
	const name = "BenchmarkValencyEstimate/arena"

	within := parseSample(t)
	within.Find(name).AllocsPerOp = 3300 // +10%
	if err := Check(baseline, within, name, 0.20); err != nil {
		t.Fatalf("+10%% rejected at 20%% tolerance: %v", err)
	}

	regressed := parseSample(t)
	regressed.Find(name).AllocsPerOp = 4000 // +34%
	if err := Check(baseline, regressed, name, 0.20); err == nil {
		t.Fatal("+34% accepted at 20% tolerance")
	}

	improved := parseSample(t)
	improved.Find(name).AllocsPerOp = 10
	if err := Check(baseline, improved, name, 0.20); err != nil {
		t.Fatalf("improvement rejected: %v", err)
	}

	if err := Check(baseline, within, "BenchmarkNope", 0.2); err == nil {
		t.Fatal("missing benchmark name accepted")
	}
}

// TestCheckBytes pins the B/op gate: a row whose allocation count
// holds while its bytes grow past the tolerance fails, and the error
// names the unit.
func TestCheckBytes(t *testing.T) {
	baseline := parseSample(t)
	const name = "BenchmarkValencyEstimate/arena"
	bytes := baseline.Find(name).BytesPerOp
	if bytes == 0 {
		t.Fatal("sample row has no B/op")
	}

	within := parseSample(t)
	within.Find(name).BytesPerOp = bytes * 1.1
	if err := Check(baseline, within, name, 0.20); err != nil {
		t.Fatalf("+10%% B/op rejected at 20%% tolerance: %v", err)
	}

	grown := parseSample(t)
	grown.Find(name).BytesPerOp = bytes * 1.5
	err := Check(baseline, grown, name, 0.20)
	if err == nil || !strings.Contains(err.Error(), "B/op") {
		t.Fatalf("+50%% B/op at equal allocs/op: error %v, want a B/op regression", err)
	}
}
