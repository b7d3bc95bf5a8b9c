package sim

import (
	"strings"
	"testing"
)

// callRecorder is an adversary that records which of its hooks run.
// The shapes below add Omit, Forge or both on top of it.
type callRecorder struct{ calls []string }

func (a *callRecorder) Name() string     { return "calls" }
func (a *callRecorder) Clone() Adversary { return a }
func (a *callRecorder) Plan(*View) []CrashPlan {
	a.calls = append(a.calls, "Plan")
	return []CrashPlan{{Victim: 0}}
}

type omitRecorder struct{ *callRecorder }

func (a omitRecorder) Omit(*View) []CrashPlan {
	a.calls = append(a.calls, "Omit")
	return []CrashPlan{{Victim: 1}}
}

type forgeRecorder struct{ *callRecorder }

func (a forgeRecorder) Forge(*View) []Forgery {
	a.calls = append(a.calls, "Forge")
	return []Forgery{{Sender: 2}}
}

// bothRecorder is an Omitter and a Forger at once.
type bothRecorder struct {
	*callRecorder
	omitRecorder
	forgeRecorder
}

// TestDispatchOrder pins the evaluation order every runner shares:
// Plan, then Omit for an Omitter, else Forge for a Forger, so an
// adversary that is both is never asked to forge.
func TestDispatchOrder(t *testing.T) {
	cases := []struct {
		name                 string
		adv                  func(*callRecorder) Adversary
		calls                string
		omissions, forgeries int
	}{
		{"plain", func(a *callRecorder) Adversary { return a }, "Plan", 0, 0},
		{"omitter", func(a *callRecorder) Adversary { return omitRecorder{a} }, "Plan Omit", 1, 0},
		{"forger", func(a *callRecorder) Adversary { return forgeRecorder{a} }, "Plan Forge", 0, 1},
		{"omitter and forger", func(a *callRecorder) Adversary {
			return bothRecorder{a, omitRecorder{a}, forgeRecorder{a}}
		}, "Plan Omit", 1, 0},
	}
	for _, c := range cases {
		rec := &callRecorder{}
		p := Dispatch(c.adv(rec), &View{Round: 1, N: 3})
		if got := strings.Join(rec.calls, " "); got != c.calls {
			t.Errorf("%s: calls %q, want %q", c.name, got, c.calls)
		}
		if len(p.Crashes) != 1 || len(p.Omissions) != c.omissions || len(p.Forgeries) != c.forgeries {
			t.Errorf("%s: plan has %d crashes, %d omissions, %d forgeries; want 1, %d, %d",
				c.name, len(p.Crashes), len(p.Omissions), len(p.Forgeries), c.omissions, c.forgeries)
		}
	}
}

// TestFinishCrashesBeforeOmissions pins finish's victim order: every
// crash plan is applied before any omission plan, so a process named by
// both is crashed (charged to T), not demoted, and its crash event
// comes first.
func TestFinishCrashesBeforeOmissions(t *testing.T) {
	const n = 4
	inputs := uniformInputs(n, 0)
	var sb strings.Builder
	e, err := NewExecution(Config{N: n, T: 1, FaultBudget: 2, Observer: &TraceObserver{W: &sb}},
		mkProcs(n, 1, 2, inputs), inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.StepPhaseA(); err != nil {
		t.Fatal(err)
	}
	if err := e.FinishRoundOmitted([]CrashPlan{{Victim: 1}}, []CrashPlan{{Victim: 0}, {Victim: 1}}); err != nil {
		t.Fatal(err)
	}
	if res := e.Result(); res.Crashes != 1 || res.Faults.Demoted != 1 {
		t.Fatalf("crashes %d, demotions %d; want 1 and 1", res.Crashes, res.Faults.Demoted)
	}
	out := sb.String()
	if p1, p0 := strings.Index(out, "crash p1"), strings.Index(out, "crash p0"); p1 < 0 || p0 < p1 {
		t.Fatalf("want the crash of p1 before the demotion of p0:\n%s", out)
	}
}
