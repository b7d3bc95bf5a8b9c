// Package synran is a Go implementation of the system studied in
// "A Tight Lower Bound for Randomized Synchronous Consensus"
// (Bar-Joseph & Ben-Or, PODC 1998): the SynRan randomized synchronous
// consensus protocol, the deterministic and symmetric-coin baselines,
// a lock-step synchronous simulator with a full-information adaptive
// fail-stop adversary, a library of adversary strategies including the
// paper's valency-guided lower-bound adversary, one-round collective
// coin-flipping games, and the benchmark harness that regenerates the
// paper's quantitative claims.
//
// This root package is the stable facade: run a consensus instance with
// Run, pick protocols and adversaries by name, and query the paper's
// closed-form bounds. The building blocks live under internal/ (see
// DESIGN.md for the system inventory).
//
//	res, err := synran.Run(synran.Spec{
//	    N: 101, T: 100,
//	    Inputs:    synran.HalfHalfInputs(101),
//	    Protocol:  synran.ProtocolSynRan,
//	    Adversary: synran.AdversarySplitVote,
//	    Seed:      42,
//	})
package synran

import (
	"fmt"
	"strings"
	"time"

	"synran/internal/adversary"
	"synran/internal/chaos"
	"synran/internal/core"
	"synran/internal/metrics"
	"synran/internal/netsim"
	"synran/internal/protocol/benor"
	"synran/internal/protocol/earlystop"
	"synran/internal/protocol/floodset"
	"synran/internal/protocol/latebeacon"
	"synran/internal/protocol/phaseking"
	"synran/internal/sim"
	"synran/internal/trials"
	"synran/internal/valency"
	"synran/internal/workload"
)

// Result is the outcome of one execution; see sim.Result for fields.
type Result = sim.Result

// Observer receives engine events; see sim.Observer.
type Observer = sim.Observer

// TraceObserver prints a line per engine event; see sim.TraceObserver.
type TraceObserver = sim.TraceObserver

// Protocol names accepted by Spec.Protocol.
const (
	// ProtocolSynRan is the paper's protocol (Section 4).
	ProtocolSynRan = "synran"
	// ProtocolBenOr is the symmetric-coin baseline ([BO83] style).
	ProtocolBenOr = "benor"
	// ProtocolFloodSet is the deterministic t+1-round baseline.
	ProtocolFloodSet = "floodset"
	// ProtocolLeaderCoin is SynRan with a coordinator-style shared coin
	// instead of private coins — O(1) against non-adaptive adversaries,
	// fragile against adaptive ones (experiment E11).
	ProtocolLeaderCoin = "leadercoin"
	// ProtocolEarlyStop is the early-stopping deterministic baseline:
	// min(f+2, t+1)-ish rounds with f actual crashes.
	ProtocolEarlyStop = "earlystop"
	// ProtocolPhaseKing is the deterministic Byzantine baseline
	// (Berman–Garay–Perry, n > 4t, 2(t+1) rounds) — pair it with
	// AdversaryEquivocator.
	ProtocolPhaseKing = "phaseking"
	// ProtocolOmitFlood is FloodSet extended to ride out adaptive-
	// omission demotions: it floods for 2t+1 rounds, absorbing up to t
	// crashes plus t omissions (pair it with the omission adversaries).
	ProtocolOmitFlood = "omitflood"
	// ProtocolLateBeacon is the beacon-election protocol built to beat
	// the ε-delayed adversary (needs 3t < n; experiment E19).
	ProtocolLateBeacon = "latebeacon"
)

// Adversary names accepted by Spec.Adversary.
const (
	// AdversaryNone never crashes anyone.
	AdversaryNone = "none"
	// AdversaryRandom crashes random processes with random partial
	// delivery.
	AdversaryRandom = "random"
	// AdversarySplitVote is the adaptive attack analyzed by Theorem 2.
	AdversarySplitVote = "splitvote"
	// AdversaryMassCrash kills 70% of the 1-senders in round 2.
	AdversaryMassCrash = "masscrash"
	// AdversaryPush0 and AdversaryPush1 steer toward a fixed decision.
	AdversaryPush0 = "push0"
	AdversaryPush1 = "push1"
	// AdversaryLowerBound is the paper's Section 3 valency-guided
	// adversary (expensive: Monte-Carlo look-ahead; small n only).
	AdversaryLowerBound = "lowerbound"
	// AdversaryWaves is a NON-adaptive adversary: its whole crash
	// schedule is committed from the seed before the run starts.
	AdversaryWaves = "waves"
	// AdversaryLeaderKiller splits coordinator broadcasts — combine with
	// splitvote against ProtocolLeaderCoin (experiment E11).
	AdversaryLeaderKiller = "leaderkiller"
	// AdversaryEquivocator is Byzantine: it corrupts processes and sends
	// conflicting values to different receivers (lock-step engine only).
	AdversaryEquivocator = "equivocator"
	// AdversaryStepwise is the faithful Section 3.4 message-by-message
	// lower-bound strategy (even more look-ahead than lowerbound).
	AdversaryStepwise = "stepwise"
	// AdversaryOmissionSplit silences one majority-value sender per
	// round with a view-splitting delivery mask; demotions are charged
	// against Spec.FaultBudget, never against T.
	AdversaryOmissionSplit = "omission-split"
	// AdversaryOmissionRandom silences random processes with random
	// delivery masks under the same fault-budget ledger.
	AdversaryOmissionRandom = "omission-random"
	// AdversaryLateSplit is SplitVote fed a 2-rounds-stale view (the
	// ε-delayed adversary of arXiv 1805.00774; experiment E19).
	AdversaryLateSplit = "late-split"
	// AdversaryLateRandom is Random fed a 2-rounds-stale view.
	AdversaryLateRandom = "late-random"
)

// Spec configures one consensus execution.
type Spec struct {
	// N is the number of processes; T the adversary's crash budget.
	N, T int
	// Inputs are the initial bits, one per process.
	Inputs []int
	// Protocol selects the implementation (default ProtocolSynRan).
	Protocol string
	// Adversary selects the fault strategy (default AdversaryNone).
	Adversary string
	// Seed makes the execution exactly reproducible.
	Seed uint64
	// MaxRounds overrides the engine's safety valve (0 = default).
	MaxRounds int
	// Engine selects the lock-step engine core: "" (or its spelling
	// "soa") for the default, which runs the columnar structure-of-arrays
	// core wherever the protocol has a tally kernel (synran, floodset,
	// omitflood) and the object core otherwise; "object" pins the
	// object-per-process reference core. Results are identical (see
	// internal/sim). An explicit "soa" is incompatible with Live/Chaos:
	// the live runner has no columnar core.
	Engine string
	// Live selects the goroutine-per-process runner instead of the
	// lock-step engine (results are identical; see internal/netsim).
	Live bool
	// Chaos, when set, runs on the hardened live runner with the given
	// deterministic fault schedule (implies Live). The fault trace is
	// reproducible from (Seed, Chaos) alone; see internal/chaos.
	Chaos *ChaosConfig
	// FaultBudget bounds the crash-equivalent faults charged OUTSIDE the
	// adversary's crash budget T: chaos demotions and panics on the
	// hardened runner, and adaptive-omission demotions (the omission-*
	// adversaries) on every engine. Keep adversary crashes + FaultBudget
	// ≤ T to stay inside the protocols' resilience condition — except
	// omitflood, which is built to absorb T crashes plus T demotions.
	FaultBudget int
	// RoundDeadline overrides the hardened runner's per-round wall-clock
	// budget (0 = the netsim default; only meaningful with Live/Chaos).
	RoundDeadline time.Duration
	// Retransmits overrides the hardened runner's re-send attempts for
	// dropped or delayed messages (0 = the netsim default).
	Retransmits int
	// Observer, when set, receives engine events.
	Observer Observer
	// Metrics, when set, receives the execution's instrument emissions
	// (rounds, messages, faults, decisions), sharded by MetricsShard;
	// see internal/metrics for the determinism contract. Zero values
	// (the default) disable the layer entirely.
	Metrics      *MetricsEngine
	MetricsShard int
}

// MetricsEngine is the instrument set executions emit into; see
// internal/metrics.NewEngine.
type MetricsEngine = metrics.Engine

// NewMetricsEngine builds a MetricsEngine sized for a trial pool of the
// given width (<= 0 selects all cores). Share one engine across a
// batch's trials and pass each trial's worker id as Spec.MetricsShard;
// the merged report is then identical at every pool width.
func NewMetricsEngine(workers int) *MetricsEngine {
	return metrics.NewEngine(metrics.New(trials.DefaultWorkers(workers)))
}

// ChaosConfig is the deterministic fault schedule for Spec.Chaos; see
// chaos.Config for the fields and chaos.ParseSpec for the flag syntax.
type ChaosConfig = chaos.Config

// ParseChaosSpec parses the -chaos flag syntax
// ("drop=0.05,dup=0.02,stall=0.01,maxstall=5ms,...") into a ChaosConfig.
func ParseChaosSpec(spec string) (ChaosConfig, error) { return chaos.ParseSpec(spec) }

// ErrFaultBudget is returned (wrapped, with a partial Result) when the
// hardened live runner exhausts Spec.FaultBudget.
var ErrFaultBudget = netsim.ErrFaultBudget

// Run executes the spec and returns the result.
func Run(spec Spec) (*Result, error) {
	procs, err := NewProtocol(orDefault(spec.Protocol, ProtocolSynRan), spec.N, spec.T, spec.Inputs, spec.Seed)
	if err != nil {
		return nil, err
	}
	adv, err := NewAdversaryBudget(orDefault(spec.Adversary, AdversaryNone), spec.N, spec.T, spec.FaultBudget, spec.Seed)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		N: spec.N, T: spec.T, MaxRounds: spec.MaxRounds, Engine: spec.Engine,
		FaultBudget: spec.FaultBudget,
		Observer:    spec.Observer,
		Metrics:     spec.Metrics, MetricsShard: spec.MetricsShard,
	}
	if spec.Live || spec.Chaos != nil {
		if LockStepOnly(spec.Adversary) {
			return nil, fmt.Errorf("synran: adversary %q needs the lock-step engine", spec.Adversary)
		}
		if spec.Engine == sim.EngineSoA {
			return nil, fmt.Errorf("synran: the %q engine is lock-step only (drop Live/Chaos or the engine override)", spec.Engine)
		}
		opts := netsim.Options{
			RoundDeadline: spec.RoundDeadline,
			Retransmits:   spec.Retransmits,
			FaultBudget:   spec.FaultBudget,
		}
		if spec.Chaos != nil {
			inj, err := chaos.New(spec.Seed, *spec.Chaos)
			if err != nil {
				return nil, err
			}
			opts.Injector = inj
		}
		return netsim.RunChaos(cfg, procs, spec.Inputs, adv, spec.Seed, opts)
	}
	exec, err := sim.NewExecution(cfg, procs, spec.Inputs, spec.Seed)
	if err != nil {
		return nil, err
	}
	return exec.Run(adv)
}

// Protocols returns every Spec.Protocol name NewProtocol accepts, in
// documentation order.
func Protocols() []string {
	return []string{ProtocolSynRan, ProtocolBenOr, ProtocolFloodSet,
		ProtocolLeaderCoin, ProtocolEarlyStop, ProtocolPhaseKing,
		ProtocolOmitFlood, ProtocolLateBeacon}
}

// Adversaries returns every Spec.Adversary name NewAdversary accepts.
func Adversaries() []string {
	return []string{AdversaryNone, AdversaryRandom, AdversarySplitVote,
		AdversaryMassCrash, AdversaryPush0, AdversaryPush1, AdversaryLowerBound,
		AdversaryWaves, AdversaryLeaderKiller, AdversaryEquivocator, AdversaryStepwise,
		AdversaryOmissionSplit, AdversaryOmissionRandom, AdversaryLateSplit, AdversaryLateRandom}
}

// ValidProtocol returns nil iff name is a Spec.Protocol value ("" is
// accepted as the ProtocolSynRan default). It is the name check
// NewProtocol applies, without constructing anything.
func ValidProtocol(name string) error {
	if name == "" {
		return nil
	}
	for _, p := range Protocols() {
		if name == p {
			return nil
		}
	}
	return fmt.Errorf("synran: unknown protocol %q (want %s)", name, strings.Join(Protocols(), "|"))
}

// ValidAdversary returns nil iff name is a Spec.Adversary value ("" is
// accepted as the AdversaryNone default).
func ValidAdversary(name string) error {
	if name == "" {
		return nil
	}
	for _, a := range Adversaries() {
		if name == a {
			return nil
		}
	}
	return fmt.Errorf("synran: unknown adversary %q (want %s)", name, strings.Join(Adversaries(), "|"))
}

// LockStepOnly reports whether the adversary needs the clonable
// lock-step engine (look-ahead rollouts or Byzantine corruption), which
// excludes the live/chaos runner and the netsim conformance lane.
func LockStepOnly(adversaryName string) bool {
	return adversaryName == AdversaryLowerBound || adversaryName == AdversaryStepwise ||
		adversaryName == AdversaryEquivocator
}

// NewProtocol builds a process vector by protocol name.
func NewProtocol(name string, n, t int, inputs []int, seed uint64) ([]sim.Process, error) {
	switch name {
	case ProtocolSynRan:
		return core.NewProcs(n, inputs, seed, core.Options{})
	case ProtocolBenOr:
		return benor.NewProcs(n, inputs, seed)
	case ProtocolFloodSet:
		return floodset.NewProcs(n, t, inputs)
	case ProtocolLeaderCoin:
		return core.NewProcs(n, inputs, seed, core.Options{LeaderCoin: true})
	case ProtocolEarlyStop:
		return earlystop.NewProcs(n, t, inputs)
	case ProtocolPhaseKing:
		return phaseking.NewProcs(n, t, inputs)
	case ProtocolOmitFlood:
		return floodset.NewProcsTolerant(n, t, t, inputs)
	case ProtocolLateBeacon:
		return latebeacon.NewProcs(n, t, inputs, seed)
	default:
		return nil, fmt.Errorf("synran: unknown protocol %q (want %s)",
			name, strings.Join(Protocols(), "|"))
	}
}

// NewAdversary builds an adversary by name. The crash budget t is only
// used by the non-adaptive waves adversary (its schedule is committed up
// front); the omission families get a fault budget of t (use
// NewAdversaryBudget to set it explicitly).
func NewAdversary(name string, n, t int, seed uint64) (sim.Adversary, error) {
	return NewAdversaryBudget(name, n, t, t, seed)
}

// NewAdversaryBudget builds an adversary by name with an explicit fault
// budget for the omission families (how many demotions they allow
// themselves; keep it equal to the engine's FaultBudget so plans are
// applied rather than skipped). Other families ignore budget.
func NewAdversaryBudget(name string, n, t, budget int, seed uint64) (sim.Adversary, error) {
	switch name {
	case AdversaryNone:
		return adversary.None{}, nil
	case AdversaryRandom:
		return &adversary.Random{PerRound: 0.7, MaxPerRound: 2}, nil
	case AdversarySplitVote:
		return &adversary.SplitVote{}, nil
	case AdversaryMassCrash:
		return &adversary.MassCrash{AtRound: 2, Fraction: 0.7, PreferValue: 1}, nil
	case AdversaryPush0:
		return &adversary.PushTo{Value: 0}, nil
	case AdversaryPush1:
		return &adversary.PushTo{Value: 1}, nil
	case AdversaryLowerBound:
		return valency.NewLowerBound(n, seed), nil
	case AdversaryStepwise:
		return valency.NewStepwise(n, seed), nil
	case AdversaryWaves:
		return adversary.NewWaves(n, t, seed), nil
	case AdversaryLeaderKiller:
		return adversary.NewCombo(adversary.LeaderKiller{}, &adversary.SplitVote{}), nil
	case AdversaryEquivocator:
		return &adversary.Equivocator{Corruptions: t}, nil
	case AdversaryOmissionSplit:
		return &adversary.Omission{Mode: "split", Budget: budget}, nil
	case AdversaryOmissionRandom:
		return &adversary.Omission{Mode: "random", Budget: budget}, nil
	case AdversaryLateSplit:
		return &adversary.Late{Inner: &adversary.SplitVote{}, Tag: "split"}, nil
	case AdversaryLateRandom:
		return &adversary.Late{Inner: &adversary.Random{PerRound: 0.7, MaxPerRound: 2}, Tag: "random"}, nil
	default:
		return nil, fmt.Errorf("synran: unknown adversary %q (want %s)",
			name, strings.Join(Adversaries(), "|"))
	}
}

// UniformInputs returns n copies of bit v.
func UniformInputs(n, v int) []int { return workload.Uniform(n, v) }

// HalfHalfInputs returns the maximally split input vector.
func HalfHalfInputs(n int) []int { return workload.HalfHalf(n) }

// UpperBoundRounds is the Theorem 3 upper-bound shape
// t / sqrt(n·log(2 + t/sqrt n)); see internal/core.
func UpperBoundRounds(n, t int) float64 { return core.UpperBoundRounds(n, t) }

// LowerBoundRounds is the Theorem 1 lower-bound shape
// t / (4·sqrt(n·log n) + 1); see internal/core.
func LowerBoundRounds(n, t int) float64 { return core.LowerBoundRounds(n, t) }

// DetThreshold is the deterministic-stage trigger sqrt(n / log n).
func DetThreshold(n int) float64 { return core.DetThreshold(n) }

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
