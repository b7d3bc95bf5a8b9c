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

	"synran/internal/adversary"
	"synran/internal/chaos"
	"synran/internal/core"
	"synran/internal/metrics"
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
	// conflicting values to different receivers (not under Spec.Chaos).
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
	// internal/sim).
	Engine string
	// Chaos, when set, runs the adversary over links that drop messages
	// at the given rate, on either core: a sender whose message a
	// receiver still misses after two re-sends is demoted against
	// FaultBudget (chaos.Lossy). The fault trace is reproducible from
	// (Seed, Chaos) alone; see internal/chaos.
	Chaos *ChaosConfig
	// FaultBudget bounds the demotions charged OUTSIDE the adversary's
	// crash budget T: the senders lossy links demote (Chaos) and the
	// omission-* adversaries' demotions. Keep adversary crashes +
	// FaultBudget ≤ T to stay inside the protocols' resilience
	// condition — except omitflood, which is built to absorb T crashes
	// plus T demotions.
	FaultBudget int
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

// ChaosConfig is the deterministic drop schedule for Spec.Chaos; see
// chaos.Config for its drop rate and chaos.ParseSpec for the flag
// syntax.
type ChaosConfig = chaos.Config

// ParseChaosSpec parses the -chaos flag syntax ("drop=0.05" or
// "none") into a ChaosConfig.
func ParseChaosSpec(spec string) (ChaosConfig, error) { return chaos.ParseSpec(spec) }

// Run executes the spec and returns the result. A run starts from the
// protocol's kernel constructor where it has one, so on the columnar
// core the execution holds no process objects; every other run starts
// from its process vector.
func Run(spec Spec) (*Result, error) {
	cfg := sim.Config{
		N: spec.N, T: spec.T, MaxRounds: spec.MaxRounds, Engine: spec.Engine,
		FaultBudget: spec.FaultBudget,
		Observer:    spec.Observer,
		Metrics:     spec.Metrics, MetricsShard: spec.MetricsShard,
	}
	p, err := protocolNamed(orDefault(spec.Protocol, ProtocolSynRan))
	if err != nil {
		return nil, err
	}
	var kernel sim.TallyKernel
	var procs []sim.Process
	if p.kernel != nil {
		kernel, err = p.kernel(spec.N, spec.T, spec.Inputs, spec.Seed)
	} else {
		procs, err = p.procs(spec.N, spec.T, spec.Inputs, spec.Seed)
	}
	if err != nil {
		return nil, err
	}
	adv, err := NewAdversaryBudget(orDefault(spec.Adversary, AdversaryNone), spec.N, spec.T, spec.FaultBudget, spec.Seed)
	if err != nil {
		return nil, err
	}
	if spec.Chaos != nil {
		inj, err := chaos.New(spec.Seed, *spec.Chaos)
		if err != nil {
			return nil, err
		}
		if adv, err = chaos.Wrap(adv, inj); err != nil {
			return nil, err
		}
	}
	var exec *sim.Execution
	if kernel != nil {
		exec, err = sim.NewKernelExecution(cfg, kernel, spec.Inputs, spec.Seed)
	} else {
		exec, err = sim.NewExecution(cfg, procs, spec.Inputs, spec.Seed)
	}
	if err != nil {
		return nil, err
	}
	return exec.Run(adv)
}

// FaultClass is a set of fault kinds: the faults an adversary injects,
// or the faults a protocol tolerates.
type FaultClass uint8

// The fault classes.
const (
	// FaultCrash is a fail-stop crash, charged to the crash budget T.
	FaultCrash FaultClass = 1 << iota
	// FaultOmission is a send-omission demotion, charged to
	// Spec.FaultBudget: the victim's links fall silent, which every
	// receiver sees as a crash.
	FaultOmission
	// FaultByzantine is a corruption, charged to T: the adversary speaks
	// for the process and may tell each receiver something different.
	FaultByzantine
)

// FaultModel is a protocol's fault model: the fault classes it
// tolerates, and the resilience condition its budget t must meet.
type FaultModel struct {
	// Tolerates holds every fault class under which the protocol keeps
	// agreement and validity while its resilience condition holds.
	Tolerates FaultClass
	// Resilience is k in the resilience condition k·t < n; 0 allows
	// any t.
	Resilience int
}

// Resilient reports whether (n, t) meets the resilience condition.
func (m FaultModel) Resilient(n, t int) bool { return m.Resilience == 0 || m.Resilience*t < n }

// MaxT returns the largest t the resilience condition allows at n.
func (m FaultModel) MaxT(n int) int {
	if m.Resilience == 0 {
		return n
	}
	return (n - 1) / m.Resilience
}

// protocolDef is one Spec.Protocol: its constructors and its fault
// model.
type protocolDef struct {
	name  string
	procs func(n, t int, inputs []int, seed uint64) ([]sim.Process, error)
	// kernel builds the protocol's columnar kernel straight from the
	// vector's parameters; nil when the protocol has none.
	kernel func(n, t int, inputs []int, seed uint64) (sim.TallyKernel, error)
	faults FaultModel
}

// tolerant is the fault model of a protocol safe against crashes and
// omission demotions (crash-equivalent to every receiver) at any t.
var tolerant = FaultModel{Tolerates: FaultCrash | FaultOmission}

// protocols is the protocol table, in documentation order.
var protocols = []protocolDef{
	{name: ProtocolSynRan,
		procs: func(n, _ int, in []int, seed uint64) ([]sim.Process, error) {
			return core.NewProcs(n, in, seed, core.Options{})
		},
		kernel: func(n, _ int, in []int, seed uint64) (sim.TallyKernel, error) {
			return core.NewKernel(n, in, seed, core.Options{})
		},
		faults: tolerant},
	// Ben-Or's symmetric coin is the ablation: crashes can break its
	// validity (experiment E5), so it tolerates no fault class.
	{name: ProtocolBenOr,
		procs: func(n, _ int, in []int, seed uint64) ([]sim.Process, error) { return benor.NewProcs(n, in, seed) }},
	{name: ProtocolFloodSet,
		procs:  func(n, t int, in []int, _ uint64) ([]sim.Process, error) { return floodset.NewProcs(n, t, in) },
		kernel: func(n, t int, in []int, _ uint64) (sim.TallyKernel, error) { return floodset.NewKernel(n, t, in) },
		faults: tolerant},
	{name: ProtocolLeaderCoin,
		procs: func(n, _ int, in []int, seed uint64) ([]sim.Process, error) {
			return core.NewProcs(n, in, seed, core.Options{LeaderCoin: true})
		},
		faults: tolerant},
	{name: ProtocolEarlyStop,
		procs:  func(n, t int, in []int, _ uint64) ([]sim.Process, error) { return earlystop.NewProcs(n, t, in) },
		faults: tolerant},
	{name: ProtocolPhaseKing,
		procs:  func(n, t int, in []int, _ uint64) ([]sim.Process, error) { return phaseking.NewProcs(n, t, in) },
		faults: FaultModel{Tolerates: FaultCrash | FaultOmission | FaultByzantine, Resilience: 4}},
	{name: ProtocolOmitFlood,
		procs: func(n, t int, in []int, _ uint64) ([]sim.Process, error) {
			return floodset.NewProcsTolerant(n, t, t, in)
		},
		kernel: func(n, t int, in []int, _ uint64) (sim.TallyKernel, error) {
			return floodset.NewKernelTolerant(n, t, t, in)
		},
		faults: tolerant},
	{name: ProtocolLateBeacon,
		procs: func(n, t int, in []int, seed uint64) ([]sim.Process, error) {
			return latebeacon.NewProcs(n, t, in, seed)
		},
		faults: FaultModel{Tolerates: FaultCrash | FaultOmission, Resilience: 3}},
}

// adversaryDef is one Spec.Adversary: its constructor and the fault
// class it injects.
type adversaryDef struct {
	name    string
	injects FaultClass
	build   func(n, t, budget int, seed uint64) sim.Adversary
}

// adversaries is the adversary table, in documentation order.
var adversaries = []adversaryDef{
	{AdversaryNone, 0, func(int, int, int, uint64) sim.Adversary { return adversary.None{} }},
	{AdversaryRandom, FaultCrash, func(int, int, int, uint64) sim.Adversary {
		return &adversary.Random{PerRound: 0.7, MaxPerRound: 2}
	}},
	{AdversarySplitVote, FaultCrash, func(int, int, int, uint64) sim.Adversary { return &adversary.SplitVote{} }},
	{AdversaryMassCrash, FaultCrash, func(int, int, int, uint64) sim.Adversary {
		return &adversary.MassCrash{AtRound: 2, Fraction: 0.7, PreferValue: 1}
	}},
	{AdversaryPush0, FaultCrash, func(int, int, int, uint64) sim.Adversary { return &adversary.PushTo{Value: 0} }},
	{AdversaryPush1, FaultCrash, func(int, int, int, uint64) sim.Adversary { return &adversary.PushTo{Value: 1} }},
	{AdversaryLowerBound, FaultCrash, func(n, _, _ int, seed uint64) sim.Adversary { return valency.NewLowerBound(n, seed) }},
	{AdversaryWaves, FaultCrash, func(n, t, _ int, seed uint64) sim.Adversary { return adversary.NewWaves(n, t, seed) }},
	{AdversaryLeaderKiller, FaultCrash, func(int, int, int, uint64) sim.Adversary {
		return adversary.NewCombo(adversary.LeaderKiller{}, &adversary.SplitVote{})
	}},
	{AdversaryEquivocator, FaultByzantine, func(_, t, _ int, _ uint64) sim.Adversary {
		return &adversary.Equivocator{Corruptions: t}
	}},
	{AdversaryStepwise, FaultCrash, func(n, _, _ int, seed uint64) sim.Adversary { return valency.NewStepwise(n, seed) }},
	{AdversaryOmissionSplit, FaultOmission, func(_, _, budget int, _ uint64) sim.Adversary {
		return &adversary.Omission{Mode: "split", Budget: budget}
	}},
	{AdversaryOmissionRandom, FaultOmission, func(_, _, budget int, _ uint64) sim.Adversary {
		return &adversary.Omission{Mode: "random", Budget: budget}
	}},
	{AdversaryLateSplit, FaultCrash, func(int, int, int, uint64) sim.Adversary {
		return &adversary.Late{Inner: &adversary.SplitVote{}, Tag: "split"}
	}},
	{AdversaryLateRandom, FaultCrash, func(int, int, int, uint64) sim.Adversary {
		return &adversary.Late{Inner: &adversary.Random{PerRound: 0.7, MaxPerRound: 2}, Tag: "random"}
	}},
}

// Protocols returns every Spec.Protocol name NewProtocol accepts, in
// documentation order.
func Protocols() []string {
	names := make([]string, len(protocols))
	for i, p := range protocols {
		names[i] = p.name
	}
	return names
}

// Adversaries returns every Spec.Adversary name NewAdversary accepts.
func Adversaries() []string {
	names := make([]string, len(adversaries))
	for i, a := range adversaries {
		names[i] = a.name
	}
	return names
}

// protocolNamed looks name up in the protocol table.
func protocolNamed(name string) (*protocolDef, error) {
	for i := range protocols {
		if protocols[i].name == name {
			return &protocols[i], nil
		}
	}
	return nil, fmt.Errorf("synran: unknown protocol %q (want %s)", name, strings.Join(Protocols(), "|"))
}

// adversaryNamed looks name up in the adversary table.
func adversaryNamed(name string) (*adversaryDef, error) {
	for i := range adversaries {
		if adversaries[i].name == name {
			return &adversaries[i], nil
		}
	}
	return nil, fmt.Errorf("synran: unknown adversary %q (want %s)", name, strings.Join(Adversaries(), "|"))
}

// ValidProtocol returns nil iff name is a Spec.Protocol value ("" is
// accepted as the ProtocolSynRan default). It is the name check
// NewProtocol applies, without constructing anything.
func ValidProtocol(name string) error {
	if name == "" {
		return nil
	}
	_, err := protocolNamed(name)
	return err
}

// ValidAdversary returns nil iff name is a Spec.Adversary value ("" is
// accepted as the AdversaryNone default).
func ValidAdversary(name string) error {
	if name == "" {
		return nil
	}
	_, err := adversaryNamed(name)
	return err
}

// ProtocolFaults returns the fault model of the named protocol.
func ProtocolFaults(name string) (FaultModel, error) {
	p, err := protocolNamed(name)
	if err != nil {
		return FaultModel{}, err
	}
	return p.faults, nil
}

// Injects returns the fault class the named adversary injects: 0 for
// AdversaryNone and for an unknown name.
func Injects(adversaryName string) FaultClass {
	if a, err := adversaryNamed(adversaryName); err == nil {
		return a.injects
	}
	return 0
}

// ExpectSafe reports whether protocol is expected to keep agreement and
// validity against adversary at (n, t): the adversary injects only
// fault classes the protocol tolerates, and (n, t) meets the protocol's
// resilience condition. It is false for an unknown protocol.
func ExpectSafe(protocol, adversaryName string, n, t int) bool {
	p, err := protocolNamed(protocol)
	if err != nil {
		return false
	}
	return Injects(adversaryName)&^p.faults.Tolerates == 0 && p.faults.Resilient(n, t)
}

// NewProtocol builds a process vector by protocol name.
func NewProtocol(name string, n, t int, inputs []int, seed uint64) ([]sim.Process, error) {
	p, err := protocolNamed(name)
	if err != nil {
		return nil, err
	}
	return p.procs(n, t, inputs, seed)
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
	a, err := adversaryNamed(name)
	if err != nil {
		return nil, err
	}
	return a.build(n, t, budget, seed), nil
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
