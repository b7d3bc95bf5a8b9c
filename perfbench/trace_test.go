package main

import "testing"

// opOf builds a finished recorder from explicit spans; spans[0] is the root.
func opOf(spans ...span) *recorder { return &recorder{op: 1, spans: spans} }

func TestLedgerSelfTimes(t *testing.T) {
	ld := newLedger()
	err := ld.add(opOf(
		span{Name: rootSpan, Start: 0, End: 100, Parent: -1},
		span{Name: "sim.phase_a", Start: 10, End: 40, Parent: 0},
		span{Name: "adversary.plan", Start: 20, End: 30, Parent: 1},
		span{Name: "sim.phase_a", Start: 50, End: 60, Parent: 0},
	), map[string]float64{"sim.messages": 7})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{rootSpan: 60, "sim.phase_a": 30, "adversary.plan": 10}
	for name, ns := range want {
		if ld.selfNs[name] != ns {
			t.Errorf("self %s = %d, want %d", name, ld.selfNs[name], ns)
		}
	}
	if ld.opNs != 100 || ld.spans["sim.phase_a"] != 2 || ld.counts["sim.messages"] != 7 {
		t.Errorf("opNs %d, phase_a spans %d, messages %v", ld.opNs, ld.spans["sim.phase_a"], ld.counts["sim.messages"])
	}
}

func TestLedgerRejectsMalformedOps(t *testing.T) {
	for name, r := range map[string]*recorder{
		"child escapes parent": opOf(
			span{Name: rootSpan, Start: 0, End: 10, Parent: -1},
			span{Name: "sim.phase_b", Start: 5, End: 15, Parent: 0}),
		"children overlap": opOf(
			span{Name: rootSpan, Start: 0, End: 10, Parent: -1},
			span{Name: "sim.phase_a", Start: 0, End: 8, Parent: 0},
			span{Name: "sim.phase_b", Start: 2, End: 10, Parent: 0}),
	} {
		ld := newLedger()
		if ld.add(r, nil) == nil || len(ld.bad) != 1 {
			t.Errorf("%s: layer-sum check passed", name)
		}
	}
}
