package conformance

import (
	"fmt"
	"math/bits"

	"synran/internal/metrics"
	"synran/internal/sim"
	"synran/internal/wire"
)

// Oracle is one pluggable invariant. An oracle is a factory: every lane
// of every case gets its own Checker, so checkers are free to keep
// per-run state without synchronization.
type Oracle interface {
	// Name identifies the oracle in violation reports.
	Name() string
	// NewChecker builds a fresh per-run checker.
	NewChecker() Checker
}

// Checker watches one execution through the engine's Observer hook and
// renders its verdict at the end. Finish returns one string per
// violation (nil = the invariant held); rep is the lane's deterministic
// metrics report, nil on lanes that do not meter.
type Checker interface {
	sim.Observer
	Finish(c Case, res *sim.Result, rep *metrics.Report) []string
}

// DefaultOracles returns the full invariant set: the paper's safety
// properties, the engine's bookkeeping contracts, and the wire/metrics
// cross-checks.
func DefaultOracles() []Oracle {
	return []Oracle{
		agreementOracle{},
		validityOracle{},
		decideOnceOracle{},
		haltAfterDecideOracle{},
		crashBudgetOracle{},
		wirePayloadOracle{},
		metricsOracle{},
	}
}

// nopObserver is the embeddable no-op sim.Observer for checkers that
// only need Finish (or a subset of the events).
type nopObserver struct{}

func (nopObserver) OnRound(int, *sim.View) {}
func (nopObserver) OnCrash(int, int, int)  {}
func (nopObserver) OnDecide(int, int, int) {}
func (nopObserver) OnHalt(int, int)        {}

// agreementOracle recomputes the paper's agreement property from the
// raw decision vector — never trusting the engine's own Agreement flag,
// which it instead cross-checks.
type agreementOracle struct{}

func (agreementOracle) Name() string        { return "agreement" }
func (agreementOracle) NewChecker() Checker { return &agreementChecker{} }

type agreementChecker struct{ nopObserver }

func (ch *agreementChecker) Finish(c Case, res *sim.Result, _ *metrics.Report) []string {
	if res == nil {
		return nil
	}
	recomputed := true
	common := -1
	for i, ok := range res.Decided {
		if !ok {
			continue
		}
		v := res.Decisions[i]
		if v != 0 && v != 1 {
			return []string{fmt.Sprintf("process %d decided %d, want 0 or 1", i, v)}
		}
		if common == -1 {
			common = v
		} else if common != v {
			recomputed = false
		}
	}
	var out []string
	if !recomputed && !c.AllowUnsafe {
		// AllowUnsafe marks configurations that are unsafe BY DESIGN (the
		// symmetric-coin Ben-Or ablation under an active adversary): there
		// the oracle only checks that the engine's flag is honest.
		out = append(out, fmt.Sprintf("two survivors decided differently: decisions=%v", res.Decisions))
	}
	if !c.AllowUnsafe && !res.Partial && !res.Agreement {
		out = append(out, "engine reports Agreement=false on a finished run")
	}
	if res.Agreement && !recomputed {
		out = append(out, "engine reports Agreement=true but the decision vector disagrees")
	}
	return out
}

// validityOracle recomputes validity: on a uniform input vector every
// decision must be that input, even on partial runs.
type validityOracle struct{}

func (validityOracle) Name() string        { return "validity" }
func (validityOracle) NewChecker() Checker { return &validityChecker{} }

type validityChecker struct{ nopObserver }

func (ch *validityChecker) Finish(c Case, res *sim.Result, _ *metrics.Report) []string {
	if res == nil || len(res.Inputs) == 0 {
		return nil
	}
	uniform := true
	for _, x := range res.Inputs[1:] {
		if x != res.Inputs[0] {
			uniform = false
		}
	}
	if !uniform {
		return nil
	}
	var violated []string
	for i, ok := range res.Decided {
		if ok && res.Decisions[i] != res.Inputs[0] {
			violated = append(violated, fmt.Sprintf(
				"validity violated: all inputs %d but process %d decided %d",
				res.Inputs[0], i, res.Decisions[i]))
		}
	}
	var out []string
	if !c.AllowUnsafe {
		// On AllowUnsafe cases (the symmetric-coin ablation) a validity
		// break is the documented behavior, not a finding — the engine's
		// flag must still be honest about it, which the checks below pin.
		out = violated
	}
	if len(violated) > 0 && res.Validity {
		out = append(out, "engine reports Validity=true despite a validity violation")
	}
	if len(violated) == 0 && !res.Validity {
		out = append(out, "engine reports Validity=false but every decision matches the uniform input")
	}
	return out
}

// decideOnceOracle checks that decisions are irrevocable: the engine
// emits at most one decide event per process, with a binary value.
type decideOnceOracle struct{}

func (decideOnceOracle) Name() string        { return "decide-once" }
func (decideOnceOracle) NewChecker() Checker { return &decideOnceChecker{} }

type decideOnceChecker struct {
	nopObserver
	decides map[int][]int // process -> decided values, in event order
}

func (ch *decideOnceChecker) OnDecide(r, p, value int) {
	if ch.decides == nil {
		ch.decides = map[int][]int{}
	}
	ch.decides[p] = append(ch.decides[p], value)
}

func (ch *decideOnceChecker) Finish(_ Case, _ *sim.Result, _ *metrics.Report) []string {
	var out []string
	for p, vs := range ch.decides {
		if len(vs) > 1 {
			out = append(out, fmt.Sprintf("process %d decided %d times: %v", p, len(vs), vs))
		}
		for _, v := range vs {
			if v != 0 && v != 1 {
				out = append(out, fmt.Sprintf("process %d decided non-binary value %d", p, v))
			}
		}
	}
	return out
}

// haltAfterDecideOracle checks the protocols' shutdown discipline: a
// process halts at most once, only in or after the round it decided,
// and never without having decided.
type haltAfterDecideOracle struct{}

func (haltAfterDecideOracle) Name() string        { return "halt-after-decide" }
func (haltAfterDecideOracle) NewChecker() Checker { return &haltChecker{} }

type haltChecker struct {
	nopObserver
	decideRound map[int]int
	haltRound   map[int]int
	violations  []string
}

func (ch *haltChecker) OnDecide(r, p, _ int) {
	if ch.decideRound == nil {
		ch.decideRound = map[int]int{}
	}
	if _, seen := ch.decideRound[p]; !seen {
		ch.decideRound[p] = r
	}
}

func (ch *haltChecker) OnHalt(r, p int) {
	if ch.haltRound == nil {
		ch.haltRound = map[int]int{}
	}
	if prev, seen := ch.haltRound[p]; seen {
		ch.violations = append(ch.violations,
			fmt.Sprintf("process %d halted twice (rounds %d and %d)", p, prev, r))
		return
	}
	ch.haltRound[p] = r
	dr, decided := ch.decideRound[p]
	switch {
	case !decided:
		ch.violations = append(ch.violations,
			fmt.Sprintf("process %d halted in round %d without deciding", p, r))
	case r < dr:
		ch.violations = append(ch.violations,
			fmt.Sprintf("process %d halted in round %d before deciding in round %d", p, r, dr))
	}
}

func (ch *haltChecker) Finish(_ Case, _ *sim.Result, _ *metrics.Report) []string {
	return ch.violations
}

// crashBudgetOracle checks fault accounting: at most T + FaultBudget
// crash events (OnCrash fires for adversary crashes AND omission
// demotions — the engines' two separate ledgers), distinct victims, and
// a Result whose Crashes + Faults.Demoted matches the event count.
type crashBudgetOracle struct{}

func (crashBudgetOracle) Name() string        { return "crash-budget" }
func (crashBudgetOracle) NewChecker() Checker { return &crashChecker{} }

type crashChecker struct {
	nopObserver
	victims    map[int]bool
	crashes    int
	violations []string
}

func (ch *crashChecker) OnCrash(r, victim, delivered int) {
	if ch.victims == nil {
		ch.victims = map[int]bool{}
	}
	ch.crashes++
	if ch.victims[victim] {
		ch.violations = append(ch.violations,
			fmt.Sprintf("process %d crashed twice (second time in round %d)", victim, r))
	}
	ch.victims[victim] = true
	if delivered < 0 {
		ch.violations = append(ch.violations,
			fmt.Sprintf("crash of %d in round %d reports %d deliveries", victim, r, delivered))
	}
}

func (ch *crashChecker) Finish(c Case, res *sim.Result, _ *metrics.Report) []string {
	out := ch.violations
	if ch.crashes > c.T+c.FaultBudget {
		out = append(out, fmt.Sprintf("adversary failed %d processes, budget t=%d + faultbudget=%d", ch.crashes, c.T, c.FaultBudget))
	}
	if res != nil {
		if res.Crashes > c.T {
			out = append(out, fmt.Sprintf("Result.Crashes=%d exceeds the crash budget t=%d", res.Crashes, c.T))
		}
		if res.Faults.Demoted > c.FaultBudget {
			out = append(out, fmt.Sprintf("Result.Faults.Demoted=%d exceeds faultbudget=%d", res.Faults.Demoted, c.FaultBudget))
		}
		if res.Crashes+res.Faults.Demoted != ch.crashes {
			out = append(out, fmt.Sprintf("Result.Crashes=%d + Faults.Demoted=%d but %d crash events observed",
				res.Crashes, res.Faults.Demoted, ch.crashes))
		}
	}
	return out
}

// wirePayloadOracle validates every broadcast payload against the wire
// encoding contract: plain bits are 0/1, flood words carry a non-empty
// value-set mask and no stray bits. Every protocol in the repository
// emits wire-encoded payloads, so the check is universal.
type wirePayloadOracle struct{}

func (wirePayloadOracle) Name() string        { return "wire-payload" }
func (wirePayloadOracle) NewChecker() Checker { return &wireChecker{} }

type wireChecker struct {
	nopObserver
	violations []string
}

func (ch *wireChecker) OnRound(r int, v *sim.View) {
	if len(ch.violations) >= 5 {
		return // cap the noise; one bad round implicates them all
	}
	for k := 0; k < v.Words(); k++ {
		for w := v.SendingWord(k); w != 0; w &= w - 1 {
			i := k<<6 | bits.TrailingZeros64(w)
			if err := wire.CheckPayload(v.Payload(i)); err != nil {
				ch.violations = append(ch.violations,
					fmt.Sprintf("round %d: process %d sent malformed payload: %v", r, i, err))
			}
		}
	}
}

func (ch *wireChecker) Finish(_ Case, _ *sim.Result, _ *metrics.Report) []string {
	return ch.violations
}

// metricsOracle cross-checks the lane's deterministic metrics report
// against the events and the Result: the counters must be exactly the
// event counts, not merely plausible.
type metricsOracle struct{}

func (metricsOracle) Name() string        { return "metrics-vs-result" }
func (metricsOracle) NewChecker() Checker { return &metricsChecker{} }

type metricsChecker struct {
	nopObserver
	rounds, decides, halts, crashes int
}

func (ch *metricsChecker) OnRound(int, *sim.View) { ch.rounds++ }
func (ch *metricsChecker) OnCrash(int, int, int)  { ch.crashes++ }
func (ch *metricsChecker) OnDecide(int, int, int) { ch.decides++ }
func (ch *metricsChecker) OnHalt(int, int)        { ch.halts++ }

func (ch *metricsChecker) Finish(_ Case, res *sim.Result, rep *metrics.Report) []string {
	if rep == nil {
		return nil
	}
	var out []string
	check := func(name string, want int) {
		if got := rep.Counter(name); got != uint64(want) {
			out = append(out, fmt.Sprintf("counter %s=%d, want %d (the observed event count)", name, got, want))
		}
	}
	check(metrics.NameRounds, ch.rounds)
	check(metrics.NameDecisions, ch.decides)
	check(metrics.NameHalts, ch.halts)
	if res != nil {
		// OnCrash fires for adversary crashes and omission demotions
		// alike; the instruments keep the two ledgers separate.
		check(metrics.NameCrashesAdversary, ch.crashes-res.Faults.Demoted)
		check(metrics.NameDemotions, res.Faults.Demoted)
		check(metrics.NameMessages, res.Messages)
		if res.Crashes+res.Faults.Demoted != ch.crashes {
			out = append(out, fmt.Sprintf("Result.Crashes=%d + Faults.Demoted=%d vs %d crash events",
				res.Crashes, res.Faults.Demoted, ch.crashes))
		}
	} else {
		check(metrics.NameCrashesAdversary, ch.crashes)
	}
	return out
}
