// Package scenario is the repository's single declarative run
// specification: one Scenario value names everything an execution needs
// — protocol × adversary × workload × n/t/seed × engine × chaos
// schedule × netsim knobs × round caps × trial counts ×
// expected-outcome assertions — with a canonical human-writable text
// encoding (Parse/Format round-trip byte-identically), a compact
// one-line form for repro command lines, and strict validation that
// subsumes the per-binary flag checks it replaced.
//
// Every binary consumes scenarios: the per-binary flag surfaces are
// thin façades that construct a Scenario and hand it to the same run
// path a -scenario file takes, so a flag-built run and its Format-ed
// file are provably the same execution (pinned by
// internal/cli's byte-identity test). The conformance harness
// enumerates the checked-in corpus under testdata/corpus as its case
// source, and FuzzScenario mutates corpus entries looking for
// divergences to minimize back into the corpus.
package scenario

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"synran"
	"synran/internal/chaos"
	"synran/internal/sim"
	"synran/internal/workload"
)

// ProtocolAsyncBenOr selects the asynchronous Ben-Or engine
// (internal/async) instead of the synchronous ones. For async
// scenarios the Adversary field names the scheduler and MaxRounds caps
// delivered messages (async.Config.MaxSteps); engine/live/chaos and
// the netsim knobs do not apply.
const ProtocolAsyncBenOr = "async-benor"

// Expect is a scenario's optional outcome assertions. Nil pointer
// fields (and zero Rounds) are unchecked; set fields must match the
// run's outcome or the scenario fails with one violation per mismatch.
type Expect struct {
	// Agreement asserts the run's agreement flag.
	Agreement *bool
	// Validity asserts the run's validity flag.
	Validity *bool
	// Decided asserts the common decided value (0 or 1).
	Decided *int
	// Rounds, when > 0, is an upper bound on the all-halted round
	// (async scenarios: on delivered messages).
	Rounds int
	// Partial asserts whether the run degraded before completion.
	Partial *bool
}

// Any reports whether at least one assertion is set.
func (e Expect) Any() bool {
	return e.Agreement != nil || e.Validity != nil || e.Decided != nil ||
		e.Rounds > 0 || e.Partial != nil
}

// Scenario is one declarative run specification. The zero value is not
// runnable (N is required); Normalize fills every defaultable field,
// and Validate rejects anything the engines would refuse, with the
// same checks whether the scenario came from flags, a file, or a
// fuzzer mutation.
type Scenario struct {
	// Protocol selects the implementation (default synran.ProtocolSynRan;
	// ProtocolAsyncBenOr selects the asynchronous engine).
	Protocol string
	// Adversary selects the fault strategy (default
	// synran.AdversaryNone). For async scenarios it names the scheduler
	// (default "fifo"; see Schedulers).
	Adversary string
	// Coin selects the async coin mode ("random" or "parity"); async
	// scenarios only (default "random").
	Coin string
	// Workload names the input-vector generator (default "half"; see
	// workload.Names).
	Workload string
	// N is the number of processes (required, > 0).
	N int
	// T is the crash budget. Negative means the protocol default:
	// (n-1)/2, or (n-1)/4 for phaseking (n > 4t).
	T int
	// Seed drives all randomness; trial i runs at Seed+i.
	Seed uint64
	// Engine selects the lock-step core (sim.ValidEngine's names; ""
	// is the default core).
	Engine string
	// Live selects the goroutine-per-process hardened runner.
	Live bool
	// Chaos is the fault schedule in chaos.ParseSpec syntax, canonical
	// per chaos.Config.Spec. "" means no chaos; "none" means the
	// hardened runner with an armed zero-fault injector (deadlines on,
	// injector consulted, no faults fire) — the distinction -chaos none
	// always had.
	Chaos string
	// FaultBudget bounds the crash-equivalent chaos faults.
	FaultBudget int
	// Deadline overrides the hardened runner's per-round wall-clock
	// budget (0 = netsim default; live/chaos scenarios only).
	Deadline time.Duration
	// Retransmits overrides the hardened runner's re-send attempts
	// (0 = netsim default; live/chaos scenarios only).
	Retransmits int
	// MaxRounds overrides the engine round cap (0 = engine default).
	// Async scenarios: the delivery cap (async.Config.MaxSteps).
	MaxRounds int
	// Trials is the number of seeded runs (default 1; trial i at Seed+i).
	Trials int
	// Expect holds the optional outcome assertions.
	Expect Expect
}

// IsAsync reports whether the scenario runs on the asynchronous engine.
func (s *Scenario) IsAsync() bool { return s.Protocol == ProtocolAsyncBenOr }

// DefaultT is the crash-budget default for a protocol at size n:
// (n-1)/2, or less where the protocol's resilience condition demands
// it: phaseking's (n-1)/4 (it needs 4t < n) and latebeacon's (n-1)/3
// (it needs 3t < n).
func DefaultT(protocol string, n int) int {
	t := (n - 1) / 2
	if m, err := synran.ProtocolFaults(protocol); err == nil {
		t = min(t, m.MaxT(n))
	}
	return t
}

// Normalize fills every defaultable field in place: protocol, adversary
// (scheduler), coin, workload, t, trials, and the canonical chaos
// rendering. It does not validate; call Validate after.
func (s *Scenario) Normalize() {
	if s.Protocol == "" {
		s.Protocol = synran.ProtocolSynRan
	}
	if s.Adversary == "" {
		if s.IsAsync() {
			s.Adversary = "fifo"
		} else {
			s.Adversary = synran.AdversaryNone
		}
	}
	if s.IsAsync() && s.Coin == "" {
		s.Coin = "random"
	}
	if s.Workload == "" {
		s.Workload = "half"
	}
	if s.T < 0 {
		s.T = DefaultT(s.Protocol, s.N)
	}
	if IsOmission(s.Adversary) && s.FaultBudget == 0 {
		// An omission adversary with no budget does nothing; default to
		// the full demotion allowance, mirroring the t-crash default.
		s.FaultBudget = s.T
	}
	if s.Trials <= 0 {
		s.Trials = 1
	}
	if s.Chaos != "" {
		// Canonicalize when parseable; Validate reports the error if not.
		if cfg, err := chaos.ParseSpec(s.Chaos); err == nil {
			s.Chaos = cfg.Spec() // zero config renders as "none"
		}
	}
}

// Normalized returns a normalized, validated copy.
func (s Scenario) Normalized() (Scenario, error) {
	s.Normalize()
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// errf prefixes every validation error identically so the rejection
// tests can pin the full message set.
func errf(format string, args ...interface{}) error {
	return fmt.Errorf("scenario: "+format, args...)
}

// Validate strictly checks a normalized scenario, subsuming the
// engine-, flag-, and case-level checks that used to live per binary.
// It reports the first problem in field order.
func (s *Scenario) Validate() error {
	if s.N <= 0 {
		return errf("n = %d, want > 0", s.N)
	}
	if s.T < 0 || s.T > s.N {
		return errf("t = %d out of [0, %d]", s.T, s.N)
	}
	if s.IsAsync() {
		return s.validateAsync()
	}
	if err := synran.ValidProtocol(s.Protocol); err != nil {
		return errf("%v (or %q)", err, ProtocolAsyncBenOr)
	}
	if err := synran.ValidAdversary(s.Adversary); err != nil {
		return errf("%v", err)
	}
	if m, _ := synran.ProtocolFaults(s.Protocol); !m.Resilient(s.N, s.T) {
		return errf("%s needs %dt < n, got n = %d, t = %d", s.Protocol, m.Resilience, s.N, s.T)
	}
	if s.Coin != "" {
		return errf("coin = %q applies only to protocol %q", s.Coin, ProtocolAsyncBenOr)
	}
	if err := validWorkload(s.Workload); err != nil {
		return err
	}
	if err := sim.ValidEngine(s.Engine); err != nil {
		return errf("%v", err)
	}
	if s.Chaos != "" {
		if _, err := chaos.ParseSpec(s.Chaos); err != nil {
			return errf("%v", err) // chaos errors carry their own prefix
		}
	}
	if s.FaultBudget < 0 {
		return errf("faultbudget = %d, want >= 0", s.FaultBudget)
	}
	if s.Deadline < 0 {
		return errf("deadline = %v, want >= 0", s.Deadline)
	}
	if s.Retransmits < 0 {
		return errf("retransmits = %d, want >= 0", s.Retransmits)
	}
	if live := s.Live || s.Chaos != ""; live {
		if synran.LockStepOnly(s.Adversary) {
			return errf("adversary %q needs the lock-step engine (drop live/chaos)", s.Adversary)
		}
		if s.Engine == sim.EngineSoA {
			return errf("engine %q is lock-step only (drop live/chaos or the engine override)", s.Engine)
		}
	} else {
		if s.FaultBudget != 0 && !IsOmission(s.Adversary) {
			return errf("faultbudget = %d needs a chaos schedule or an omission adversary", s.FaultBudget)
		}
		if s.Deadline != 0 || s.Retransmits != 0 {
			return errf("deadline/retransmits apply only to live/chaos scenarios")
		}
	}
	if IsOmission(s.Adversary) && s.FaultBudget > s.T {
		return errf("faultbudget = %d exceeds t = %d (omission demotions count toward the resilience condition)", s.FaultBudget, s.T)
	}
	return s.validateCommon()
}

// IsOmission reports whether the adversary name is one of the
// adaptive-omission families, whose demotions FaultBudget bounds on
// every engine (no chaos schedule required).
func IsOmission(adversaryName string) bool {
	return synran.Injects(adversaryName) == synran.FaultOmission
}

// validateAsync checks the async-benor-only field combinations.
func (s *Scenario) validateAsync() error {
	if _, err := newScheduler(s.Adversary); err != nil {
		return err
	}
	if _, err := coinMode(s.Coin); err != nil {
		return err
	}
	if err := validWorkload(s.Workload); err != nil {
		return err
	}
	if 2*s.T >= s.N {
		return errf("async benor needs t < n/2, got n = %d, t = %d", s.N, s.T)
	}
	if s.Engine != "" || s.Live || s.Chaos != "" || s.FaultBudget != 0 ||
		s.Deadline != 0 || s.Retransmits != 0 {
		return errf("engine/live/chaos/faultbudget/deadline/retransmits do not apply to protocol %q", ProtocolAsyncBenOr)
	}
	return s.validateCommon()
}

// validateCommon checks the fields shared by both engine families.
func (s *Scenario) validateCommon() error {
	if s.MaxRounds < 0 {
		return errf("maxrounds = %d, want >= 0", s.MaxRounds)
	}
	if s.Trials < 1 {
		return errf("trials = %d, want >= 1", s.Trials)
	}
	if d := s.Expect.Decided; d != nil && *d != 0 && *d != 1 {
		return errf("expect.decided = %d, want 0 or 1", *d)
	}
	if s.Expect.Rounds < 0 {
		return errf("expect.rounds = %d, want >= 0", s.Expect.Rounds)
	}
	return nil
}

func validWorkload(name string) error {
	if slices.Contains(workload.Names(), name) {
		return nil
	}
	return errf("unknown workload %q (want %s)", name, strings.Join(workload.Names(), "|"))
}

// TrialSeed is trial i's seed: Seed + i, the repository-wide
// per-trial-index derivation every worker pool relies on.
func (s *Scenario) TrialSeed(i int) uint64 { return s.Seed + uint64(i) }

// Outcome is the comparable result of one scenario trial, the value
// Expect assertions check. Sync runs fill Rounds/Crashes from
// sim.Result; async runs put delivered messages in Rounds.
type Outcome struct {
	Agreement bool
	Validity  bool
	// Decided is the common decided value, or -1 when nobody decided.
	Decided int
	// Rounds is the all-halted round (async: delivered messages).
	Rounds int
	// Crashes is the adversary's spent budget (async: scheduler crashes).
	Crashes int
	// Partial reports graceful degradation (fault budget or round cap).
	Partial bool
}

// CheckExpect compares an outcome to the scenario's assertions and
// returns one violation string per mismatch (nil when satisfied or no
// assertions are set).
func (s *Scenario) CheckExpect(o Outcome) []string {
	var out []string
	check := func(field string, want, got interface{}) {
		out = append(out, fmt.Sprintf("expect.%s = %v, got %v", field, want, got))
	}
	e := s.Expect
	if e.Agreement != nil && o.Agreement != *e.Agreement {
		check("agreement", *e.Agreement, o.Agreement)
	}
	if e.Validity != nil && o.Validity != *e.Validity {
		check("validity", *e.Validity, o.Validity)
	}
	if e.Decided != nil && o.Decided != *e.Decided {
		check("decided", *e.Decided, o.Decided)
	}
	if e.Rounds > 0 && o.Rounds > e.Rounds {
		out = append(out, fmt.Sprintf("expect.rounds <= %d, got %d", e.Rounds, o.Rounds))
	}
	if e.Partial != nil && o.Partial != *e.Partial {
		check("partial", *e.Partial, o.Partial)
	}
	return out
}
