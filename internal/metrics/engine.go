package metrics

// DecideRoundsBounds are the bucket upper bounds of the decide-round
// histogram: dense where the paper's protocols actually terminate, with
// an overflow bucket for adversarial stragglers.
var DecideRoundsBounds = []uint64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256}

// Engine instrument names, as they appear in the exported JSON.
const (
	// Engine round events.
	NameRounds           = "engine_rounds"
	NameMessages         = "messages_delivered"
	NameDecisions        = "process_decisions"
	NameHalts            = "process_halts"
	NameCrashesAdversary = "crashes_adversary"
	NameDecideRounds     = "decide_rounds"

	// Omission demotions (the omission adversaries and lossy links),
	// sim.Faults.Demoted's counter.
	NameDemotions = "proc_demotions"

	// Trial harness (internal/trials.Metered) and CLI accounting.
	NameTrialsRun      = "trials_run"
	NameTrialsFailed   = "trials_failed"
	NameTrialsDegraded = "trials_degraded"

	// Durable trial runner (internal/trials.DurableWorker) accounting,
	// worker-invariant for a deterministic trial function.
	NameShardsResumed   = "shards_resumed"
	NameShardsJournaled = "shards_journaled"

	// Valency estimator rollouts actually simulated. A pool member whose
	// probe rollout drew no randomness adds 1, not RolloutsPerAdversary:
	// its other rollouts take the probe's outcome unsimulated (see
	// valency.Estimator.Pool). A look-ahead adversary's classification
	// also adds nothing for the rollouts it skips once the class is
	// settled: a traced perfbench lookahead run (seed 42) reads 191 per
	// op, against 281 when every rollout ran. Both rules depend on
	// outcomes alone, so the count is the same at every worker count.
	NameRollouts = "valency_rollouts"

	// Snapshot-arena reuse (volatile: the fleet is per-worker, so the
	// hit/miss split depends on the worker count).
	NameArenaHits   = "arena_hits"
	NameArenaMisses = "arena_misses"
	NameArenaSize   = "arena_size"
)

// Engine is the well-known instrument set the lock-step engine
// (internal/sim, both cores), the trial harness (internal/trials),
// and the valency estimator (internal/valency) emit their round events
// into. One Engine is shared by every worker of a run; emission sites
// pass their worker id as the shard index, so the hot path never locks.
//
// A nil *Engine is the disabled state (the default everywhere): every
// wiring point guards with a single nil-check, so the layer costs
// nothing when off. Instrument methods are additionally nil-receiver
// safe for cold paths that prefer unguarded calls.
type Engine struct {
	reg *Registry

	Rounds           *Counter
	Messages         *Counter
	Decisions        *Counter
	Halts            *Counter
	CrashesAdversary *Counter
	DecideRounds     *Histogram

	Demotions *Counter

	TrialsRun      *Counter
	TrialsFailed   *Counter
	TrialsDegraded *Counter

	ShardsResumed   *Counter
	ShardsJournaled *Counter

	Rollouts *Counter

	ArenaHits   *Counter
	ArenaMisses *Counter
	ArenaSize   *Gauge
}

// NewEngine registers the full instrument set on reg up front — every
// instrument appears in the export even at zero, so the document shape
// is stable — and returns the emission facade.
func NewEngine(reg *Registry) *Engine {
	return &Engine{
		reg: reg,

		Rounds:           reg.Counter(NameRounds),
		Messages:         reg.Counter(NameMessages),
		Decisions:        reg.Counter(NameDecisions),
		Halts:            reg.Counter(NameHalts),
		CrashesAdversary: reg.Counter(NameCrashesAdversary),
		DecideRounds:     reg.Histogram(NameDecideRounds, DecideRoundsBounds),

		Demotions: reg.Counter(NameDemotions),

		TrialsRun:      reg.Counter(NameTrialsRun),
		TrialsFailed:   reg.Counter(NameTrialsFailed),
		TrialsDegraded: reg.Counter(NameTrialsDegraded),

		ShardsResumed:   reg.Counter(NameShardsResumed),
		ShardsJournaled: reg.Counter(NameShardsJournaled),

		Rollouts: reg.Counter(NameRollouts),

		ArenaHits:   reg.VolatileCounter(NameArenaHits),
		ArenaMisses: reg.VolatileCounter(NameArenaMisses),
		ArenaSize:   reg.VolatileGauge(NameArenaSize),
	}
}

// Registry returns the registry the engine's instruments live in (nil
// on a nil engine).
func (m *Engine) Registry() *Registry {
	if m == nil {
		return nil
	}
	return m.reg
}
