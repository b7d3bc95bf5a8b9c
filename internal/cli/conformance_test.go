package cli

import (
	"strings"
	"testing"
)

func TestConformanceQuickSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("quick grid is still dozens of differential cases")
	}
	var sb strings.Builder
	err := Conformance(ConformanceOptions{Quick: true, Seed: 42}, &sb)
	if err != nil {
		t.Fatalf("quick sweep failed: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"conformance quick sweep", "sync cases", "async cases", "all lanes agree"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestConformanceOneCase(t *testing.T) {
	for _, tc := range []struct{ spec, name string }{
		{"protocol=synran,adversary=splitvote,workload=half,n=5,t=2,seed=7",
			"synran/splitvote/half/n=5/t=2/seed=7"},
		// The repro form async findings print, delivery cap included.
		{"protocol=async-benor,adversary=splitter,coin=parity,workload=half,n=4,t=1,seed=1,maxrounds=500",
			"async-benor/splitter/parity/half/n=4/t=1/seed=1"},
		{"protocol=async-benor,adversary=random,n=5,seed=3",
			"async-benor/random/random/half/n=5/t=2/seed=3"},
	} {
		var sb strings.Builder
		if err := Conformance(ConformanceOptions{One: tc.spec}, &sb); err != nil {
			t.Fatalf("%s: %v\n%s", tc.spec, err, sb.String())
		}
		if !strings.Contains(sb.String(), "conformance case: "+tc.name+"\n") {
			t.Fatalf("%s: output missing the case name %s:\n%s", tc.spec, tc.name, sb.String())
		}
	}
}

func TestConformanceRejectsBadSpec(t *testing.T) {
	var sb strings.Builder
	if err := Conformance(ConformanceOptions{One: "protocol=synran,bogus=1"}, &sb); err == nil {
		t.Fatal("bad case spec must fail")
	}
}
