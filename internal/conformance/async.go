package conformance

import (
	"fmt"

	"synran/internal/async"
	"synran/internal/scenario"
)

// The async lane. The async engine has no rounds to diff against the
// synchronous lanes, so its contract is replay determinism — two runs of
// the same seeded scenario must deliver the exact same message sequence
// — plus the same recomputed safety invariants the synchronous oracles
// check. Both runs go through scenario.RunAsync, the run path every
// async-benor trial takes, so a finding replays through -one as the run
// the lane saw.

// recordingSched wraps a scheduler, logging every message the engine
// actually delivers (and forwarding the callback when the inner
// scheduler is itself a DeliveryObserver).
type recordingSched struct {
	inner async.Scheduler
	log   []async.Message
}

var _ async.Scheduler = (*recordingSched)(nil)
var _ async.DeliveryObserver = (*recordingSched)(nil)

func (r *recordingSched) Name() string                    { return r.inner.Name() }
func (r *recordingSched) Next(v *async.View) async.Action { return r.inner.Next(v) }
func (r *recordingSched) Delivered(m async.Message) {
	r.log = append(r.log, m)
	if d, ok := r.inner.(async.DeliveryObserver); ok {
		d.Delivered(m)
	}
}

// asyncRun is one replay of an async scenario: the run, and every
// delivery the engine made, recorded by the wrapper around the
// scenario's scheduler.
type asyncRun struct {
	sched *recordingSched
	run   scenario.AsyncRun
}

// runAsyncOnce runs the scenario's base seed once, recording deliveries.
func runAsyncOnce(s scenario.Scenario) (*asyncRun, error) {
	var rec *recordingSched
	run, err := scenario.RunAsync(&s, 0, func(inner async.Scheduler) async.Scheduler {
		rec = &recordingSched{inner: inner}
		return rec
	})
	if err != nil {
		return nil, err
	}
	return &asyncRun{sched: rec, run: run}, nil
}

// CheckAsync runs an async scenario's base seed twice and compares the
// delivery sequences message for message (replay determinism — this is
// the check that catches a scheduler whose internal state drifts from
// what the engine actually delivered, such as the pre-fix Splitter
// tally), then applies the invariant recomputations to the result.
func CheckAsync(s scenario.Scenario) ([]Divergence, []string, error) {
	// The lane checks the base seed alone, and its repro names just that.
	s.Trials, s.Expect = 1, scenario.Expect{}
	var runs [2]*asyncRun
	for i := range runs {
		r, err := runAsyncOnce(s)
		if err != nil {
			return nil, nil, fmt.Errorf("conformance: %s run %d: %w", CaseName(s), i+1, err)
		}
		runs[i] = r
	}
	return asyncFindings(s, runs[0], runs[1])
}

// asyncFindings diffs two replays of s and recomputes the invariants on
// the first. Every finding carries the -one repro of s.
func asyncFindings(s scenario.Scenario, a, b *asyncRun) ([]Divergence, []string, error) {
	spec, err := scenario.Compact(s)
	if err != nil {
		return nil, nil, err
	}
	name, repro := CaseName(s), reproOne(spec)
	var divs []Divergence
	div := func(field, av, bv string, idx int) {
		divs = append(divs, Divergence{
			Name: name, Repro: repro, LaneA: "async-run1", LaneB: "async-run2",
			Field: field, A: av, B: bv, EventIndex: idx,
		})
	}
	if idx, av, bv := diffDeliveries(a.sched.log, b.sched.log); idx >= 0 {
		div("delivery", av, bv, idx)
	}
	ra, rb := a.run.Res, b.run.Res
	if (ra == nil) != (rb == nil) {
		div("timeout", fmt.Sprint(ra == nil), fmt.Sprint(rb == nil), -1)
	}
	if ra != nil && rb != nil {
		if ra.Steps != rb.Steps {
			div("Result.Steps", fmt.Sprint(ra.Steps), fmt.Sprint(rb.Steps), -1)
		}
		if ra.Crashes != rb.Crashes {
			div("Result.Crashes", fmt.Sprint(ra.Crashes), fmt.Sprint(rb.Crashes), -1)
		}
		if fmt.Sprint(ra.Decisions) != fmt.Sprint(rb.Decisions) {
			div("Result.Decisions", fmt.Sprint(ra.Decisions), fmt.Sprint(rb.Decisions), -1)
		}
	}

	violations := asyncInvariants(s, a)
	for i := range violations {
		violations[i] = fmt.Sprintf("%s: %s\n  repro: %s", name, violations[i], repro)
	}
	return divs, violations, nil
}

// diffDeliveries finds the first delivery where two replays disagree.
func diffDeliveries(a, b []async.Message) (int, string, string) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i, fmt.Sprintf("%+v", a[i]), fmt.Sprintf("%+v", b[i])
		}
	}
	if len(a) != len(b) {
		return n, fmt.Sprintf("%d deliveries", len(a)), fmt.Sprintf("%d deliveries", len(b))
	}
	return -1, "", ""
}

// asyncInvariants recomputes the async engine's contracts on one run:
// step accounting, crash budget, agreement/validity from the raw
// decision vector, and — for the Splitter — the tally-vs-deliveries
// cross-check that pins the Delivered-callback fix.
func asyncInvariants(s scenario.Scenario, run *asyncRun) []string {
	var out []string
	if res := run.run.Res; res != nil {
		if res.Steps != len(run.sched.log) {
			out = append(out, fmt.Sprintf("Result.Steps=%d but %d deliveries observed", res.Steps, len(run.sched.log)))
		}
		if res.Crashes > s.T {
			out = append(out, fmt.Sprintf("%d crashes, budget t=%d", res.Crashes, s.T))
		}
		common := -1
		for i, ok := range res.Decided {
			if !ok {
				continue
			}
			v := res.Decisions[i]
			if v != 0 && v != 1 {
				out = append(out, fmt.Sprintf("process %d decided non-binary %d", i, v))
			}
			if common == -1 {
				common = v
			} else if common != v {
				out = append(out, fmt.Sprintf("agreement violated: decisions=%v", res.Decisions))
				break
			}
		}
		uniform := len(res.Inputs) > 0
		for _, x := range res.Inputs {
			if x != res.Inputs[0] {
				uniform = false
			}
		}
		if uniform {
			for i, ok := range res.Decided {
				if ok && res.Decisions[i] != res.Inputs[0] {
					out = append(out, fmt.Sprintf(
						"validity violated: all inputs %d, process %d decided %d",
						res.Inputs[0], i, res.Decisions[i]))
				}
			}
		}
	}
	if sp, ok := run.sched.inner.(*async.Splitter); ok {
		reports := 0
		for _, m := range run.sched.log {
			if _, ok := async.ReportValue(m.Payload); ok {
				reports++
			}
		}
		if got := sp.RecordedReports(); got != reports {
			out = append(out, fmt.Sprintf(
				"splitter tally drift: scheduler recorded %d report deliveries, engine delivered %d", got, reports))
		}
	}
	return out
}

// AsyncCases enumerates the sweep's asynchronous grid: every scheduler
// (including the synchronous-round emulation) on the randomized coin,
// with the deterministic parity coin added for the benign FIFO schedule
// (the adversarial schedules loop it forever by design — E15).
func AsyncCases(cfg SweepConfig) []scenario.Scenario {
	scheds := []string{"fifo", "syncround", "splitter"}
	if !cfg.Quick {
		scheds = append(scheds, "random")
	}
	workloads := []string{"half"}
	if !cfg.Quick {
		workloads = append(workloads, "zeros", "random")
	}
	seeds := cfg.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	var out []scenario.Scenario
	add := func(s scenario.Scenario) {
		s.Protocol = scenario.ProtocolAsyncBenOr
		s.Normalize()
		out = append(out, s)
	}
	for _, sched := range scheds {
		for _, wl := range workloads {
			for i := 0; i < seeds; i++ {
				add(scenario.Scenario{Adversary: sched, Workload: wl, N: 5, T: 2, Seed: cfg.Seed + uint64(len(out))})
			}
		}
	}
	add(scenario.Scenario{Adversary: "fifo", Coin: "parity", Workload: "half", N: 4, T: 1, Seed: cfg.Seed})
	return out
}
