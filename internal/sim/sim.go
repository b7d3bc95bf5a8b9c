// Package sim implements the synchronous distributed system model of
// Bar-Joseph & Ben-Or (PODC 1998), Section 3.1: n processes computing in
// lock-step rounds, each round split into Phase A (local coin flips and
// computation, producing the round's outgoing message) and Phase B
// (message exchange), under the control of a fail-stop,
// adaptive-strongly-dynamic, computationally unbounded, full-information
// adversary.
//
// The adversary is consulted after Phase A of every round, when it can
// inspect every process's local state and the messages they are about to
// send, and may then crash processes mid-exchange so that only a chosen
// subset of a victim's round-r messages is delivered. A crashed process
// never sends again. Communication links are perfectly reliable: every
// message not censored by a crash is delivered at the end of the round.
//
// The engine is deliberately sequential and deterministic: given a seed,
// an execution is exactly reproducible, and executions can be cloned
// mid-round, which is what the Monte-Carlo valency analysis in
// internal/valency uses to implement the paper's look-ahead adversary.
package sim

import (
	"errors"
	"fmt"
	"math/bits"

	"synran/internal/metrics"
	"synran/internal/rng"
)

// Process is one participant's protocol state machine. Implementations
// must be deterministic given their rng stream and inbox sequence, and
// must support deep copying via Clone so executions can be snapshotted.
type Process interface {
	// Round executes Phase A of round r (r starts at 1): consume the
	// messages delivered at the end of the previous round (nil for r==1)
	// and return the payload this process broadcasts in round r.
	// send=false means the process broadcasts nothing this round.
	// The inbox slice is only valid for the duration of the call.
	Round(r int, inbox []Recv) (payload int64, send bool)

	// Decided reports the process's irrevocable decision, if any.
	Decided() (value int, ok bool)

	// Stopped reports whether the process has halted voluntarily: it will
	// not be scheduled again, and counts as non-faulty.
	Stopped() bool

	// Clone returns a deep copy of the process state.
	Clone() Process
}

// Reseeder is implemented by processes whose future coin flips can be
// replaced with a fresh stream. Execution.ReseedProcesses uses it so
// Monte-Carlo rollouts of a cloned execution sample independent futures
// (a plain Clone would replay the exact same coins).
type Reseeder interface {
	Reseed(seed uint64)
}

// Recv is one received message: the sender and its broadcast payload.
// Processes do not receive their own broadcast; protocols that need it
// (all of the ones in this repository) account for their own value
// locally, matching the paper's "including b_i" convention.
type Recv struct {
	From    int
	Payload int64
}

// CrashPlan instructs the engine to fail one process during Phase B of
// the current round. Deliver selects which receivers still get the
// victim's round message; nil means the message reaches no one. A
// victim whose Deliver set is full crashes "silently": everyone hears
// its last message, but it is dead from the next round on.
type CrashPlan struct {
	Victim  int
	Deliver *BitSet
}

// View is the full-information snapshot handed to the adversary after
// Phase A of a round. It is safe by contract: per-process state is
// exposed only through read-only accessor methods (IsAlive, Payload,
// AliveWord, ...) that return values, never slices or sets, so
// adversaries cannot mutate engine state and cannot accidentally retain
// live buffers — which is what lets the engine reuse one View (and its
// backing arrays) across rounds and snapshots. A View is valid only for
// the duration of the Plan / Forge / OnRound call it is passed to; to
// experiment with hypothetical futures, snapshot Exec (Clone, CloneInto,
// or a SnapshotArena) and drive the snapshot.
type View struct {
	Round  int
	N      int
	T      int
	Budget int // crashes the adversary may still perform
	// Exec is the live execution (full-information model: the adversary
	// may inspect it, including Process state machines, but must only
	// drive snapshots of it).
	Exec *Execution
	// Rng is the adversary's private random stream; draws advance it.
	Rng *rng.Stream

	alive    *BitSet
	halted   *BitSet
	corrupt  *BitSet
	sending  *BitSet
	payloads []int64 // Phase-A outputs; meaningful where sending is true
	procs    []Process
}

// ViewState is the explicit form of a View, used by NewView. The engine
// assembles its Views internally; NewView exists for alternative runners
// (internal/netsim) and adversary unit tests that need synthetic views.
type ViewState struct {
	Round, N, T, Budget int
	Alive               *BitSet
	Halted              *BitSet
	Corrupt             *BitSet
	Sending             *BitSet
	Payloads            []int64
	Procs               []Process
	Exec                *Execution
	Rng                 *rng.Stream
}

// NewView assembles a View over the given state. The sets and slices are
// aliased, not copied: the caller must not mutate them while the View is
// in use. Each non-nil set has capacity N; nil sets are read as all-false
// (a nil Payloads as all-zero).
func NewView(s ViewState) *View {
	return &View{
		Round:    s.Round,
		N:        s.N,
		T:        s.T,
		Budget:   s.Budget,
		Exec:     s.Exec,
		Rng:      s.Rng,
		alive:    s.Alive,
		halted:   s.Halted,
		corrupt:  s.Corrupt,
		sending:  s.Sending,
		payloads: s.Payloads,
		procs:    s.Procs,
	}
}

// IsAlive reports whether process i has not crashed. Read-only; never
// aliases engine state beyond the View's validity window.
func (v *View) IsAlive(i int) bool { return v.alive != nil && v.alive.Get(i) }

// IsHalted reports whether process i stopped voluntarily (halted
// processes are alive and non-faulty).
func (v *View) IsHalted(i int) bool { return v.halted != nil && v.halted.Get(i) }

// IsCorrupt reports whether process i has been corrupted by a Byzantine
// adversary (always false in the fail-stop model).
func (v *View) IsCorrupt(i int) bool { return v.corrupt != nil && v.corrupt.Get(i) }

// IsSending reports whether process i broadcasts a message this round.
func (v *View) IsSending(i int) bool { return v.sending != nil && v.sending.Get(i) }

// Words returns the number of 64-process words the flag columns span.
// Word k of a column covers processes 64k … 64k+63, process i at bit
// i&63, and bits at or past N are clear, so a consumer visits a column's
// members in ascending order with
//
//	for k := 0; k < v.Words(); k++ {
//		for w := v.SendingWord(k); w != 0; w &= w - 1 {
//			i := k<<6 | bits.TrailingZeros64(w)
//			...
//		}
//	}
//
// at O(N/64 + members) instead of O(N).
func (v *View) Words() int { return (v.N + 63) >> 6 }

// SendingWord returns a copy of word k of the sending column.
func (v *View) SendingWord(k int) uint64 { return word(v.sending, k) }

// AliveWord returns a copy of word k of the alive column.
func (v *View) AliveWord(k int) uint64 { return word(v.alive, k) }

// HaltedWord returns a copy of word k of the halted column.
func (v *View) HaltedWord(k int) uint64 { return word(v.halted, k) }

// LiveWord returns word k of the live set: alive and not halted.
func (v *View) LiveWord(k int) uint64 { return word(v.alive, k) &^ word(v.halted, k) }

// word reads word k of a View column; a nil column is all-false.
func word(b *BitSet, k int) uint64 {
	if b == nil {
		return 0
	}
	return b.words[k]
}

// Payload returns process i's Phase-A output for this round; it is
// meaningful only where IsSending(i) is true.
func (v *View) Payload(i int) int64 {
	if v.payloads == nil {
		return 0
	}
	return v.payloads[i]
}

// Proc exposes process i's state machine (full-information model), as
// Execution.Process does: LIVE engine state on the object core, which
// adversaries may inspect but must not call Round on (drive a snapshot
// of Exec instead), and a copy built at the call on the columnar core.
func (v *View) Proc(i int) Process {
	if v.Exec != nil {
		// Route through the execution, which on the columnar core builds
		// the object from its kernel.
		return v.Exec.Process(i)
	}
	if v.procs == nil {
		return nil
	}
	return v.procs[i]
}

// AliveCount returns the number of non-crashed processes (halted
// processes are alive: they stopped voluntarily and are non-faulty).
func (v *View) AliveCount() int {
	if v.alive == nil {
		return 0
	}
	return v.alive.Count()
}

// Adversary is a (possibly adaptive, full-information) fault strategy.
type Adversary interface {
	// Name identifies the strategy in traces and experiment tables.
	Name() string
	// Plan is invoked once per round after Phase A. Plans that exceed the
	// crash budget, name dead processes, or repeat a victim are ignored
	// in order.
	Plan(v *View) []CrashPlan
	// Clone returns a deep copy, used when snapshotting executions.
	Clone() Adversary
}

// ReusableAdversary is an optional Adversary extension for rollout
// pools. ResetAdversary restores factory-fresh planning behavior while
// keeping internal scratch storage, so one instance can serve many
// Monte-Carlo rollouts without per-rollout allocation; internal/valency
// caches one instance per (worker, pool entry) and resets it between
// rollouts. Plan results from a reusable adversary are only guaranteed
// valid until its next Plan call — the engine copies delivery masks
// into its own scratch during FinishRound, satisfying that contract.
type ReusableAdversary interface {
	Adversary
	ResetAdversary()
}

// Observer receives engine events; useful for tracing and statistics.
type Observer interface {
	OnRound(r int, view *View)
	OnCrash(r int, victim int, delivered int)
	OnDecide(r int, p int, value int)
	OnHalt(r int, p int)
}

// Config describes one execution.
type Config struct {
	N         int // number of processes
	T         int // adversary crash budget, 0 <= T <= N
	MaxRounds int // safety valve; 0 selects a generous default
	// Engine selects the round-loop core. The default ("" or EngineSoA)
	// runs the columnar structure-of-arrays core (see soa.go) on a kernel
	// handed to NewKernelExecution by a protocol's kernel constructor, or
	// on the kernel procs[0]'s KernelBuilder adopts a vector handed to
	// NewExecution into, and the object core on any other vector;
	// EngineObject pins the object-per-process reference core for both
	// routes. The two are behaviorally identical — the conformance
	// differential lane pins byte-equality — so Engine only matters for
	// performance and for differential testing.
	Engine string
	// Observer, when non-nil, receives this execution's engine events.
	// Observers watch exactly one execution: snapshots (Clone, CloneInto,
	// SnapshotArena) never carry the observer, so look-ahead rollouts of
	// a cloned execution cannot re-fire callbacks for hypothetical
	// futures. TestCloneDropsObserver pins this contract.
	Observer Observer
	// Metrics, when non-nil, receives this execution's instrument
	// emissions (rounds, deliveries, decisions, crashes), tagged with
	// MetricsShard — the trial worker's id — so concurrent workers never
	// contend. Snapshots drop Metrics for the same reason they drop the
	// Observer: look-ahead rollouts must not recount hypothetical futures.
	Metrics      *metrics.Engine
	MetricsShard int
	// FaultBudget bounds the omission demotions an Omitter adversary may
	// charge (see FinishRoundOmitted): a budget of k absorbs exactly k
	// demotions, and further omission plans are skipped deterministically.
	// It is the lock-step mirror of netsim.Options.FaultBudget, kept
	// distinct from the crash budget T exactly as the netsim runner keeps
	// chaos faults distinct from adversary crashes.
	FaultBudget int
}

// DefaultMaxRounds returns the round cap used when Config.MaxRounds is
// zero: comfortably above t+1, the worst deterministic bound.
func DefaultMaxRounds(n int) int { return 20*n + 200 }

// Execution errors.
var (
	// ErrMaxRounds reports that the execution hit the safety valve before
	// every surviving process decided. For a correct protocol this means
	// the adversary (or the round cap) is pathological.
	ErrMaxRounds = errors.New("sim: execution exceeded MaxRounds before termination")
)

// Faults accounts for the non-crash faults an execution absorbed.
// Dropped / Duplicated / Delayed count injected message faults the
// chaos-hardened runner masked or converted; Stalled counts injected
// process stalls; Panics counts process panics isolated by the runner;
// Demoted counts processes converted to crash faults — by the hardened
// runner after missed round deadlines or unrecoverable omissions, or by
// an adaptive-omission adversary (sim.Omitter) on any engine. Panics +
// Demoted are the crash-equivalent faults charged against the fault
// budget (distinct from the adversary's T).
type Faults struct {
	Dropped    int
	Duplicated int
	Delayed    int
	Stalled    int
	Panics     int
	Demoted    int
}

// CrashEquivalent returns the number of faults that consumed a process
// (the quantity that must stay within the fault budget, and that adds to
// the adversary's crashes when checking the ≤ t resilience condition).
func (f Faults) CrashEquivalent() int { return f.Panics + f.Demoted }

// Total returns the total number of injected fault events absorbed.
func (f Faults) Total() int {
	return f.Dropped + f.Duplicated + f.Delayed + f.Stalled + f.Panics + f.Demoted
}

// Result summarizes a finished execution.
type Result struct {
	// DecideRounds is the number of rounds until every surviving process
	// had decided — the complexity measure of the paper.
	DecideRounds int
	// HaltRounds is the number of rounds until every surviving process
	// had halted (SynRan processes keep echoing briefly after deciding).
	HaltRounds int
	// Crashes is the number of processes the adversary failed.
	Crashes int
	// Messages is the total number of messages delivered — the message
	// complexity of the execution.
	Messages int
	// Survivors is the number of non-faulty processes.
	Survivors int
	// Decisions[i] is process i's decision; valid where Decided[i].
	Decisions []int
	Decided   []bool
	// Inputs echoes the initial values, for validity checking.
	Inputs []int
	// Agreement: all surviving processes decided, and on the same value.
	Agreement bool
	// Validity: if all inputs were v, every decision is v.
	Validity bool
	// Faults accounts for non-crash faults absorbed during the run:
	// chaos faults on the hardened runner, omission demotions from an
	// Omitter adversary on any engine.
	Faults Faults
	// FaultNotes carries structured annotations for isolated failures
	// (one line per recovered panic / demotion), newest last.
	FaultNotes []string
	// Partial marks a gracefully degraded run: the runner gave up (fault
	// budget exhausted or MaxRounds hit) and this Result summarizes the
	// execution up to that point. Partial results accompany a typed error.
	Partial bool
}

// DecidedValue returns the common decision value, or -1 if no process
// survived (vacuous agreement) or agreement failed.
func (r *Result) DecidedValue() int {
	v := -1
	for i, ok := range r.Decided {
		if !ok {
			continue
		}
		if v == -1 {
			v = r.Decisions[i]
		} else if v != r.Decisions[i] {
			return -1
		}
	}
	return v
}

// Execution is a running (or finished) instance of the model. Create one
// with NewExecution, then drive it with Run, or step it manually with
// StepPhaseA/FinishRound for adversary look-ahead.
type Execution struct {
	cfg    Config
	procs  []Process
	inputs []int
	advRng *rng.Stream
	// reseedCoins and reseedAdv are what the latest ReseedProcesses left:
	// the kernel's coin count (-1 when there is none to read) and the
	// adversary stream it seeded. DrewSinceReseed compares against them.
	reseedCoins int
	reseedAdv   rng.Stream

	// Per-process flags, one bit each (see BitSet for the word layout).
	// decided and stopped record each process's Decided and Stopped
	// answers after its latest Phase A; decidedSeen and halted mark the
	// ones bookkeeping has taken in. The columnar core leaves decided
	// unsized and reads stopped for it: a kernel process decides exactly
	// when it stops.
	alive       BitSet
	halted      BitSet
	corrupt     BitSet
	decided     BitSet
	stopped     BitSet
	decidedSeen BitSet
	crashed     int
	corrupted   int // number of true entries in corrupt
	demoted     int // omission demotions, the only Faults entry the engine counts
	forged      map[int]*Forgery

	round      int // last completed round
	phaseAOpen bool
	// tallyMode selects the columnar core (see its state below). It
	// shares phaseAOpen's word, which keeps an Execution with its
	// allocation header inside the 1024-byte size class.
	tallyMode bool

	payloads []int64
	sending  BitSet
	// deliver[v] is this round's delivery mask for object-core victim v,
	// set by the victim loop and cleared by the phaseB that reads it, so
	// every entry is nil outside finish; nil = deliver to all.
	deliver []*BitSet

	// inboxes[j] is the message list Phase A of the next round hands to
	// process j. Phase A consumes it, so Phase B rebuilds it in place.
	inboxes [][]Recv
	// Phase B scratch (see phaseB): the round's uniform broadcasts in
	// sender order, and the senders spliced into them per receiver.
	run     []Recv
	splices []splice

	decideRound int // first round after which all survivors had decided
	haltRound   int
	messages    int // deliveries so far

	viewBuf View // reusable adversary view; rebuilt by view() each round

	// deliverScratch[v] is object-core victim v's persistent
	// delivery-mask slot; crash-plan masks are copied into it instead of
	// cloned per plan.
	deliverScratch []*BitSet

	// Columnar-core state (see soa.go). While tallyMode is set the
	// kernel is the whole process state and procs is nil: Process builds
	// a process from the kernel when called, and a Byzantine fall-back
	// builds the whole vector once.
	kernel       TallyKernel
	cols         TallyColumns
	act          BitSet // Phase A's active set: alive, not halted, not corrupt
	eligible     BitSet
	victimGroups []soaGroup
	groupScratch []*BitSet // per-group mask copies: one per distinct plan mask, not per victim
	classTab     [8]soaClass
}

// NewExecution validates the configuration and assembles an execution.
// procs[i] receives inputs[i]; advSeed seeds the stream exposed to the
// adversary through View.Rng. A kernel-capable vector under a columnar
// cfg is adopted into its kernel (see Reset).
func NewExecution(cfg Config, procs []Process, inputs []int, advSeed uint64) (*Execution, error) {
	e := &Execution{}
	if err := e.Reset(cfg, procs, inputs, advSeed); err != nil {
		return nil, err
	}
	return e, nil
}

// NewKernelExecution is NewExecution for a vector given in columnar
// form: k, built by a protocol's kernel constructor from the same
// inputs, is the execution's whole process state, and no process
// object exists unless the run falls back to the object core. Under an
// EngineObject cfg the execution runs the vector k.KernelProcs builds,
// so a run path hands its kernel here whatever the engine.
func NewKernelExecution(cfg Config, k TallyKernel, inputs []int, advSeed uint64) (*Execution, error) {
	e := &Execution{}
	if err := e.start(cfg, inputs, advSeed); err != nil {
		return nil, err
	}
	if cfg.columnar() {
		e.adopt(k)
	} else {
		e.runObjects(k.KernelProcs())
	}
	return e, nil
}

// Reset reinitializes the execution to round zero for a new run,
// validating exactly as NewExecution would, but reusing every
// per-process buffer (flag words, payloads, inboxes, delivery masks, the
// adversary rng) already owned by the receiver. Resetting a zero
// Execution is equivalent to NewExecution. A kernel-capable vector
// under a columnar cfg is adopted into its kernel, and the execution
// then holds no process objects; otherwise the given procs replace the
// previous ones. All other state is overwritten in place.
func (e *Execution) Reset(cfg Config, procs []Process, inputs []int, advSeed uint64) error {
	if cfg.N > 0 && len(procs) != cfg.N {
		return fmt.Errorf("sim: %d processes for N = %d", len(procs), cfg.N)
	}
	if err := e.start(cfg, inputs, advSeed); err != nil {
		return err
	}
	if kb, ok := procs[0].(KernelBuilder); ok && cfg.columnar() {
		if k := kb.BuildKernel(procs); k != nil {
			e.adopt(k)
			return nil
		}
	}
	e.runObjects(procs)
	return nil
}

// start validates cfg and inputs and resets every piece of state both
// cores share; the caller then picks the core through adopt or
// runObjects.
func (e *Execution) start(cfg Config, inputs []int, advSeed uint64) error {
	n := cfg.N
	if n <= 0 {
		return fmt.Errorf("sim: N = %d, want > 0", n)
	}
	if len(inputs) != n {
		return fmt.Errorf("sim: %d inputs for N = %d", len(inputs), n)
	}
	if cfg.T < 0 || cfg.T > n {
		return fmt.Errorf("sim: T = %d out of [0, %d]", cfg.T, n)
	}
	for i, x := range inputs {
		if x != 0 && x != 1 {
			return fmt.Errorf("sim: input[%d] = %d, want 0 or 1", i, x)
		}
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = DefaultMaxRounds(n)
	}
	if err := ValidEngine(cfg.Engine); err != nil {
		return err
	}
	e.cfg = cfg
	e.inputs = append(e.inputs[:0], inputs...)
	if e.advRng == nil {
		e.advRng = rng.New(advSeed)
	} else {
		e.advRng.Reseed(advSeed)
	}
	e.reseedCoins = -1
	e.alive.Reset(n)
	e.alive.Fill()
	e.halted.Reset(n)
	e.corrupt.Reset(n)
	e.stopped.Reset(n)
	e.decidedSeen.Reset(n)
	e.sending.Reset(n)
	e.act.Reset(n)
	e.crashed = 0
	e.corrupted = 0
	e.demoted = 0
	e.forged = nil
	e.round = 0
	e.phaseAOpen = false
	e.payloads = resizeInt64s(e.payloads, n)
	for i := range e.payloads {
		e.payloads[i] = 0
	}
	e.decideRound = 0
	e.haltRound = 0
	e.messages = 0
	e.viewBuf = View{}
	return nil
}

// sizeObjectCore sizes the object core's per-process buffers, which
// the columnar core never reads: it starts the decided column from
// stopped (clear on a fresh run, the kernel's decisions on a fall-back),
// clears every delivery override and empties every inbox. runObjects
// calls it for an object-core run and leaveTallyMode on a fall-back.
// With reserve, every missing inbox is cut from one shared block, capped
// at n so it can never grow into its neighbour (Phase B appends at most
// n-1 messages per receiver). A fall-back leaves them to grow lazily
// instead: tally mode never preallocates inboxes, because at n = 10^6
// the object engine's n² inbox reservation alone would be ~16 GB.
func (e *Execution) sizeObjectCore(reserve bool) {
	n := e.cfg.N
	e.decided.CopyFrom(&e.stopped)
	e.deliver = resizeMasks(e.deliver, n)
	e.deliverScratch = resizeMasks(e.deliverScratch, n)
	for i := range e.deliver {
		e.deliver[i] = nil
	}
	e.inboxes = resizeRecvBufs(e.inboxes, n)
	var block []Recv
	for i := 0; i < n; i++ {
		switch {
		case e.inboxes[i] != nil:
			e.inboxes[i] = e.inboxes[i][:0]
		case reserve:
			if len(block) == 0 {
				block = make([]Recv, (n-i)*n)
			}
			e.inboxes[i], block = block[:0:n], block[n:]
		}
	}
}

// resizeInt64s returns s with length n, reusing its storage when
// possible. Contents are unspecified; callers overwrite every element.
func resizeInt64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// resizeMasks is resizeInt64s for delivery-mask vectors; grown tails keep
// their previous *BitSet values (possibly nil) for later reuse.
func resizeMasks(s []*BitSet, n int) []*BitSet {
	if cap(s) < n {
		grown := make([]*BitSet, n)
		copy(grown, s)
		return grown
	}
	return s[:n]
}

// resizeRecvBufs returns s with length n, keeping every existing inbox
// buffer (and its capacity) so refills do not reallocate.
func resizeRecvBufs(s [][]Recv, n int) [][]Recv {
	if cap(s) < n {
		grown := make([][]Recv, n)
		copy(grown, s)
		s = grown
	} else {
		s = s[:n]
	}
	return s
}

// Exported accessors follow one aliasing contract, which DESIGN.md's
// model section documents: scalar accessors (N, T, Round, Budget, Alive,
// Halted, Corrupt, Input) return values and never alias engine state;
// slice-returning accessors (Inputs, Result) return fresh copies the
// caller owns; Process is the single deliberate exception — on the
// object core it hands out the LIVE state machine, because the
// full-information adversary is entitled to inspect it.

// N returns the number of processes. Read-only value.
func (e *Execution) N() int { return e.cfg.N }

// T returns the adversary's total crash budget. Read-only value.
func (e *Execution) T() int { return e.cfg.T }

// Round returns the index of the last completed round. Read-only value.
func (e *Execution) Round() int { return e.round }

// Budget returns the number of faults (crashes plus corruptions) the
// adversary may still introduce. Read-only value.
func (e *Execution) Budget() int { return e.cfg.T - e.crashed - e.corrupted }

// Alive reports whether process p has not crashed. Read-only value.
func (e *Execution) Alive(p int) bool { return e.alive.Get(p) }

// Halted reports whether process p stopped voluntarily. Read-only value.
func (e *Execution) Halted(p int) bool { return e.halted.Get(p) }

// Input returns process p's initial value without allocating.
func (e *Execution) Input(p int) int { return e.inputs[p] }

// Inputs returns a copy of the initial values. The caller owns the
// returned slice; mutating it does not affect the execution. Use Input
// for allocation-free single-element access.
func (e *Execution) Inputs() []int { return append([]int(nil), e.inputs...) }

// Process exposes process p's state machine (full-information model).
// On the object core the returned Process is LIVE engine state: callers
// may inspect it but must not call Round on it — snapshot the execution
// and drive the snapshot instead. On the columnar core the execution
// holds no process objects, so Process returns a copy of p built from
// the kernel at the call: it reads the same state, but it does not
// follow later rounds, and mutating it does not reach the execution.
func (e *Execution) Process(p int) Process {
	if e.tallyMode {
		return e.kernel.KernelProcess(p)
	}
	return e.procs[p]
}

// SetObserver replaces the execution's observer (nil detaches). Clones
// and snapshots deliberately drop the observer; the conformance replay
// lanes use SetObserver to re-attach one to a snapshot they are about to
// drive for real — turning the snapshot into a first-class execution
// whose events are compared against the original's.
func (e *Execution) SetObserver(o Observer) { e.cfg.Observer = o }

// Done reports whether the execution has terminated: every correct
// (non-crashed, non-corrupted) process has halted, or none remains.
// Alive, halted and corrupt change only inside a round's finish, whose
// bookkeeping records the first round this holds as haltRound.
func (e *Execution) Done() bool { return e.haltRound != 0 }

// Clone returns a deep copy of the execution, including mid-round Phase-A
// state, process state machines, and the adversary rng stream. Driving
// the clone does not affect the original; identical inputs produce
// identical continuations. The clone never carries the Observer: observers
// watch one execution, not its hypothetical futures.
//
// Clone allocates a fresh Execution per call; repeated look-ahead
// rollouts from the same base state should use CloneInto or a
// SnapshotArena, which recycle the buffers instead.
func (e *Execution) Clone() *Execution {
	return e.CloneInto(nil)
}

// CloneInto overwrites dst with a deep copy of e, reusing every buffer
// dst already owns (flag words, payloads, inboxes, delivery BitSets, the
// adversary rng, and — for processes implementing ProcessCopier — the
// process state machines themselves). A nil dst allocates a fresh
// Execution, making CloneInto(nil) identical to Clone. It returns dst.
//
// The copy is semantically indistinguishable from Clone: all state is
// overwritten, so a recycled dst produces byte-identical continuations
// to a fresh clone regardless of what it previously held. Like Clone,
// CloneInto drops the Observer. dst must not be the receiver itself.
func (e *Execution) CloneInto(dst *Execution) *Execution {
	if dst == nil {
		dst = &Execution{}
	}
	n := e.cfg.N
	dst.cfg = e.cfg
	dst.cfg.Observer = nil // observers watch one execution, not its clones
	dst.cfg.Metrics = nil  // ditto: rollouts must not recount events
	dst.inputs = append(dst.inputs[:0], e.inputs...)
	if dst.advRng == nil {
		dst.advRng = e.advRng.Clone()
	} else {
		dst.advRng.CopyFrom(e.advRng)
	}
	dst.reseedCoins, dst.reseedAdv = e.reseedCoins, e.reseedAdv
	dst.alive.CopyFrom(&e.alive)
	dst.halted.CopyFrom(&e.halted)
	dst.corrupt.CopyFrom(&e.corrupt)
	dst.stopped.CopyFrom(&e.stopped)
	dst.decidedSeen.CopyFrom(&e.decidedSeen)
	dst.sending.CopyFrom(&e.sending)
	dst.act.CopyFrom(&e.act)
	dst.crashed = e.crashed
	dst.corrupted = e.corrupted
	dst.demoted = e.demoted
	dst.round = e.round
	dst.phaseAOpen = e.phaseAOpen
	dst.payloads = append(dst.payloads[:0], e.payloads...)
	dst.decideRound = e.decideRound
	dst.haltRound = e.haltRound
	dst.messages = e.messages

	dst.tallyMode = e.tallyMode
	if e.tallyMode {
		// Columnar core: the kernel is the whole process state, so clone
		// it (a few flat column copies); dst holds no process objects
		// either.
		dst.kernel = e.kernel.KernelCopyInto(dst.kernel)
		dst.cols.copyFrom(&e.cols)
		dst.classTab = e.classTab
		dst.procs = nil
	} else {
		dst.decided.CopyFrom(&e.decided)
		if cap(dst.procs) < n {
			grown := make([]Process, n)
			copy(grown, dst.procs)
			dst.procs = grown
		} else {
			dst.procs = dst.procs[:n]
		}
		for i, p := range e.procs {
			if d, ok := dst.procs[i].(ProcessCopier); ok && d.CopyFrom(p) {
				continue
			}
			dst.procs[i] = p.Clone()
		}

		// The object core's buffers. A columnar dst never reads them
		// and sizes them itself if it falls back.
		dst.deliver = resizeMasks(dst.deliver, n)
		dst.deliverScratch = resizeMasks(dst.deliverScratch, n)
		for i := 0; i < n; i++ {
			src := e.deliver[i]
			if src == nil {
				dst.deliver[i] = nil
				continue
			}
			dst.deliver[i] = dst.deliverSlot(i, src)
		}
		// An open round's inboxes were consumed by its Phase A and are
		// rebuilt by its Phase B, so only a closed round's are worth
		// copying.
		dst.inboxes = resizeRecvBufs(dst.inboxes, n)
		for i := 0; i < n; i++ {
			dst.inboxes[i] = dst.inboxes[i][:0]
			if !e.phaseAOpen {
				dst.inboxes[i] = append(dst.inboxes[i], e.inboxes[i]...)
			}
		}
	}

	dst.forged = nil
	if e.forged != nil {
		dst.forged = make(map[int]*Forgery, len(e.forged))
		for k, f := range e.forged {
			fc := *f
			fc.PerReceiver = append([]int64(nil), f.PerReceiver...)
			dst.forged[k] = &fc
		}
	}

	dst.viewBuf = View{} // never alias the source's round buffers
	return dst
}

// ReseedProcesses replaces every process's (and the adversary view's)
// future randomness with fresh streams derived from seed. Use on clones
// before rollouts so each rollout samples an independent future. It
// records the kernel's coin count (a CoinCounter's) and the adversary
// stream it has just seeded, so DrewSinceReseed can later tell a future
// that drew nothing random, one every seed would have run alike.
func (e *Execution) ReseedProcesses(seed uint64) {
	var root rng.Stream
	root.Reseed(seed)
	n := e.cfg.N
	e.reseedCoins = -1
	if e.tallyMode {
		for i := 0; i < n; i++ {
			e.kernel.KernelReseed(i, root.SplitSeed(uint64(i)))
		}
		if c, ok := e.kernel.(CoinCounter); ok {
			e.reseedCoins = c.KernelCoins()
		}
	} else {
		for i, p := range e.procs {
			if rs, ok := p.(Reseeder); ok {
				rs.Reseed(root.SplitSeed(uint64(i)))
			}
		}
	}
	e.advRng.Reseed(root.SplitSeed(uint64(n)))
	e.reseedAdv = *e.advRng
}

// DrewSinceReseed reports whether anything random may have been drawn
// since the latest ReseedProcesses: a coin the kernel counted, or a draw
// from View.Rng. Only a columnar execution whose kernel is a CoinCounter
// can answer false. The object core, a kernel without a count, an
// execution never reseeded and one that has left the columnar core
// since the reseed all answer true, so a caller that skips the futures
// of a false answer keeps the object core as its full-simulation
// reference.
func (e *Execution) DrewSinceReseed() bool {
	c, ok := e.kernel.(CoinCounter)
	return !e.tallyMode || !ok || e.reseedCoins < 0 ||
		c.KernelCoins() != e.reseedCoins || *e.advRng != e.reseedAdv
}

// StepPhaseA runs Phase A of the next round: every live, non-halted
// process consumes its inbox and produces its outgoing payload, and its
// decided and stopped flags are recorded for the round's bookkeeping. It
// returns the adversary view for the round. It is an error to call it
// twice without FinishRound, or after termination.
func (e *Execution) StepPhaseA() (*View, error) {
	if e.phaseAOpen {
		return nil, errors.New("sim: StepPhaseA called with a round already open")
	}
	if e.Done() {
		return nil, errors.New("sim: StepPhaseA called on a finished execution")
	}
	r := e.round + 1
	e.forged = nil // forgeries are per round
	// Only alive, non-halted, non-corrupt processes run; the rest send
	// nothing. Corrupted processes' honest state machines are frozen; the
	// adversary speaks for them via forgeries.
	act, sending := e.act.words, e.sending.words
	for k, a := range e.alive.words {
		a &^= e.halted.words[k] | e.corrupt.words[k]
		act[k] = a
		sending[k] &= a
	}
	if e.tallyMode {
		e.kernel.KernelRound(r, &e.act, &e.cols, e.payloads, &e.sending, &e.stopped)
	} else {
		decided, stopped := e.decided.words, e.stopped.words
		for k, a := range act {
			sw, dw, tw := sending[k]&^a, decided[k]&^a, stopped[k]&^a
			for w := a; w != 0; w &= w - 1 {
				b := bits.TrailingZeros64(w)
				i, bit := k<<6|b, uint64(1)<<uint(b)
				var inbox []Recv
				if r > 1 {
					inbox = e.inboxes[i]
				}
				p := e.procs[i]
				payload, send := p.Round(r, inbox)
				e.payloads[i] = payload
				if send {
					sw |= bit
				}
				if _, ok := p.Decided(); ok {
					dw |= bit
				}
				if p.Stopped() {
					tw |= bit
				}
			}
			sending[k], decided[k], stopped[k] = sw, dw, tw
		}
	}
	e.phaseAOpen = true
	return e.view(r), nil
}

// view assembles the adversary's full-information snapshot for round r
// in the execution's reusable view buffer. The same View value (and the
// engine slices it aliases) is recycled every round — which is safe
// because View exposes state through read-only accessors and is only
// valid for the duration of the adversary/observer call.
func (e *Execution) view(r int) *View {
	e.viewBuf = View{
		Round:    r,
		N:        e.cfg.N,
		T:        e.cfg.T,
		Budget:   e.Budget(),
		Exec:     e,
		Rng:      e.advRng,
		alive:    &e.alive,
		halted:   &e.halted,
		corrupt:  &e.corrupt,
		sending:  &e.sending,
		payloads: e.payloads,
		procs:    e.procs,
	}
	return &e.viewBuf
}

// RoundPlan is one round's adversary decisions, taken on the round's
// pre-crash view: crash plans charged to T, omission demotions charged
// to Config.FaultBudget, and Byzantine forgeries charged to T.
type RoundPlan struct {
	Crashes   []CrashPlan
	Omissions []CrashPlan
	Forgeries []Forgery
}

// Dispatch consults adv on the round's view v in the engine's one
// evaluation order: Plan, then Omit if adv is an Omitter, else Forge if
// it is a Forger. Step and the netsim synchronizer both call it, so no
// runner spells the order out itself.
func Dispatch(adv Adversary, v *View) RoundPlan {
	p := RoundPlan{Crashes: adv.Plan(v)}
	if om, ok := adv.(Omitter); ok {
		p.Omissions = om.Omit(v)
	} else if forger, ok := adv.(Forger); ok {
		p.Forgeries = forger.Forge(v)
	}
	return p
}

// FinishRound applies the adversary's crash plans and performs Phase B
// (message delivery) of the open round, then updates decision and halt
// bookkeeping. Invalid plans (dead or repeated victims, out-of-range
// indices, plans beyond the budget) are skipped deterministically.
func (e *Execution) FinishRound(plans []CrashPlan) error {
	return e.finish(RoundPlan{Crashes: plans})
}

// FinishRoundOmitted is FinishRound plus adaptive-omission demotions:
// each omission plan silences one victim's outgoing links from this
// round on (Deliver selects which receivers still get its round
// message, exactly as in a CrashPlan), after which the victim is
// send-omission faulty — crash-equivalent, charged against
// Config.FaultBudget as a demotion rather than against the adversary's
// crash budget T. Omission plans past the budget (or naming dead or
// repeated victims) are skipped deterministically, mirroring the crash
// rules, so every engine and runner stays byte-identical.
func (e *Execution) FinishRoundOmitted(plans, omissions []CrashPlan) error {
	return e.finish(RoundPlan{Crashes: plans, Omissions: omissions})
}

// finish closes the open round under p: forgeries first (a process
// they corrupt is skipped as a victim), then every crash, then every
// omission demotion, then Phase B on the execution's core and the
// decision and halt bookkeeping. The order of the crash events, then
// the omission events, is part of the cross-lane event-log contract
// the conformance harness diffs.
func (e *Execution) finish(p RoundPlan) error {
	if !e.phaseAOpen {
		return errors.New("sim: FinishRound called without an open round")
	}
	if len(p.Forgeries) > 0 {
		if e.tallyMode {
			// Corruption needs per-receiver payloads, which tally columns
			// cannot carry: sync the process objects from the kernel and
			// run the object path from here on (permanently — dropping
			// back is always behavior-preserving, the reverse is not).
			e.leaveTallyMode()
		}
		e.applyForgeries(p.Forgeries)
	}
	r := e.round + 1
	e.victimGroups = e.victimGroups[:0]
	e.applyVictims(r, p.Crashes, true)
	e.applyVictims(r, p.Omissions, false)

	deliveredBefore := e.messages
	if e.tallyMode {
		e.phaseBTally()
	} else {
		e.phaseB()
	}
	if m := e.cfg.Metrics; m != nil {
		m.Messages.Add(e.cfg.MetricsShard, uint64(e.messages-deliveredBefore))
	}
	e.finishBookkeeping(r)
	return nil
}

// applyVictims is the victim loop of both cores. It takes plans in
// order, crashing each victim against the crash budget T (crash) or
// demoting it against Config.FaultBudget: out-of-range, dead and
// corrupt victims are skipped, and the first valid victim past the
// budget ends the loop.
func (e *Execution) applyVictims(r int, plans []CrashPlan, crash bool) {
	budget, spent := e.cfg.T, e.crashed+e.corrupted
	if !crash {
		budget, spent = e.cfg.FaultBudget, e.demoted
	}
	for _, plan := range plans {
		v := plan.Victim
		if v < 0 || v >= e.cfg.N || !e.alive.Get(v) || e.corrupt.Get(v) {
			continue
		}
		if spent >= budget {
			break
		}
		spent++
		e.alive.Clear(v)
		if crash {
			e.crashed++
		} else {
			e.demoted++
		}
		delivered := e.recordDelivery(v, plan.Deliver)
		if obs := e.cfg.Observer; obs != nil {
			obs.OnCrash(r, v, delivered)
		}
		if m := e.cfg.Metrics; m != nil {
			if crash {
				m.CrashesAdversary.Inc(e.cfg.MetricsShard)
			} else {
				m.Demotions.Inc(e.cfg.MetricsShard)
			}
		}
	}
}

// recordDelivery records that victim v's round message still reaches
// the receivers in mask (nil = no one) and returns how many it reaches.
// It is the victim loop's one core-specific step: the object core
// copies a sending victim's mask into v's scratch slot for phaseB, the
// columnar core adds v to its mask's group for phaseBTally.
func (e *Execution) recordDelivery(v int, mask *BitSet) int {
	if e.tallyMode {
		return e.groupVictim(v, mask)
	}
	if !e.sending.Get(v) {
		return 0
	}
	e.deliver[v] = e.deliverSlot(v, mask)
	return e.deliver[v].Count()
}

// splice is a Phase B sender whose delivery depends on the receiver: a
// crash or omission victim of this round, whose deliver mask selects
// the receivers that still hear it, or an alive Byzantine sender, whose
// forgery table gives each receiver's payload. at is its position in
// the round's run of uniform broadcasts: the number of uniform senders
// before it.
type splice struct{ at, from int }

// phaseB delivers the open round's messages: every eligible receiver
// (alive, not halted, not corrupt) gets, in sender order, each message
// addressed to it but its own, and every other inbox is emptied. It is
// receiver-major: one pass over the senders lays the uniform broadcasts
// (non-corrupt, sending, no delivery override) out once in e.run and
// lists the receiver-dependent senders as splices, then each inbox is a
// few bulk copies of that run with the splices merged in. The result is
// element for element what a sender-major loop builds (an internal test
// keeps that loop as the oracle). It clears the delivery overrides it
// consumed.
func (e *Execution) phaseB() {
	run, splices := e.run[:0], e.splices[:0]
	alive, corrupt, sending := e.alive.words, e.corrupt.words, e.sending.words
	for k := range alive {
		// Candidate senders: non-corrupt senders, and alive corrupt
		// processes, which speak through forgeries.
		for w := sending[k]&^corrupt[k] | alive[k]&corrupt[k]; w != 0; w &= w - 1 {
			i := k<<6 | bits.TrailingZeros64(w)
			switch {
			case corrupt[k]&(1<<uint(i&63)) != 0:
				// A corrupt sender with no forgery this round stays silent.
				if f := e.forged[i]; f != nil && !f.Silent {
					splices = append(splices, splice{at: len(run), from: i})
				}
			case e.deliver[i] != nil:
				splices = append(splices, splice{at: len(run), from: i})
			default:
				run = append(run, Recv{From: i, Payload: e.payloads[i]})
			}
		}
	}
	e.run, e.splices = run, splices

	self := 0 // first run entry from a sender >= j
	var eligible uint64
	for j, inbox := range e.inboxes {
		if j&63 == 0 {
			k := j >> 6
			eligible = alive[k] &^ e.halted.words[k] &^ corrupt[k]
		}
		inbox = inbox[:0]
		for self < len(run) && run[self].From < j {
			self++
		}
		// Delivery to crashed, halted, or corrupted processes is
		// harmless; skip it to keep inboxes meaningful.
		if eligible&(1<<uint(j&63)) != 0 {
			skip := -1
			if self < len(run) && run[self].From == j {
				skip = self
			}
			lo := 0
			for _, s := range splices {
				inbox = appendRun(inbox, run, lo, s.at, skip)
				lo = s.at
				i := s.from
				switch {
				case i == j:
				case e.corrupt.Get(i):
					inbox = append(inbox, Recv{From: i, Payload: e.forged[i].PerReceiver[j]})
				case e.deliver[i].Get(j):
					inbox = append(inbox, Recv{From: i, Payload: e.payloads[i]})
				}
			}
			inbox = appendRun(inbox, run, lo, len(run), skip)
			e.messages += len(inbox)
		}
		e.inboxes[j] = inbox
	}
	for _, s := range splices {
		e.deliver[s.from] = nil
	}
}

// appendRun appends run[lo:hi] to inbox, leaving out run[skip] (the
// receiver's own broadcast) when it lies in that range.
func appendRun(inbox, run []Recv, lo, hi, skip int) []Recv {
	if lo <= skip && skip < hi {
		inbox = append(inbox, run[lo:skip]...)
		lo = skip + 1
	}
	return append(inbox, run[lo:hi]...)
}

// finishBookkeeping closes round r from the decided and stopped columns
// Phase A recorded, in one word pass on both cores. Each live (alive,
// non-corrupt) process that newly decided is marked seen and each that
// newly stopped is marked halted; an observer hears each such process's
// OnDecide, then its OnHalt, in process order. decideRound and
// haltRound are the first rounds after which every live process had
// decided, resp. halted. A process's Round call for round r has
// completed, so its flags reflect the paper's "end of round r" (its
// round-r message was already sent).
func (e *Execution) finishBookkeeping(r int) {
	obs := e.cfg.Observer
	decided, stopped := e.decidedColumn().words, e.stopped.words
	seen, halted := e.decidedSeen.words, e.halted.words
	allDecided, anyActive := true, false
	decisions, halts := 0, 0
	for k, a := range e.alive.words {
		live := a &^ e.corrupt.words[k]
		newDecided := live & decided[k] &^ seen[k]
		newHalted := live & stopped[k] &^ halted[k]
		seen[k] |= newDecided
		halted[k] |= newHalted
		allDecided = allDecided && live&^decided[k] == 0
		anyActive = anyActive || live&^halted[k] != 0
		decisions += bits.OnesCount64(newDecided)
		halts += bits.OnesCount64(newHalted)
		if obs != nil {
			for w := newDecided | newHalted; w != 0; w &= w - 1 {
				b := bits.TrailingZeros64(w)
				i, bit := k<<6|b, uint64(1)<<uint(b)
				if newDecided&bit != 0 {
					obs.OnDecide(r, i, e.decision(i))
				}
				if newHalted&bit != 0 {
					obs.OnHalt(r, i)
				}
			}
		}
	}
	m, shard := e.cfg.Metrics, e.cfg.MetricsShard
	if e.decideRound == 0 && allDecided {
		e.decideRound = r
		if m != nil {
			m.DecideRounds.Observe(shard, uint64(r))
		}
	}
	if e.haltRound == 0 && !anyActive {
		e.haltRound = r
	}
	e.round = r
	e.phaseAOpen = false
	if m != nil {
		m.Decisions.Add(shard, uint64(decisions))
		m.Halts.Add(shard, uint64(halts))
		m.Rounds.Inc(shard)
	}
}

// decidedColumn is the column holding each process's decided flag:
// stopped on the columnar core, where a process decides when it stops.
func (e *Execution) decidedColumn() *BitSet {
	if e.tallyMode {
		return &e.stopped
	}
	return &e.decided
}

// decision returns decided process i's value.
func (e *Execution) decision(i int) int {
	if e.tallyMode {
		return e.kernel.KernelDecision(i)
	}
	v, _ := e.procs[i].Decided()
	return v
}

// Run drives the execution under adv until every surviving process has
// halted, or MaxRounds is exceeded (ErrMaxRounds), then summarizes it.
// Result-free callers (Monte-Carlo rollouts) use Drive directly.
func (e *Execution) Run(adv Adversary) (*Result, error) {
	if err := e.Drive(adv); err != nil {
		return nil, err
	}
	return e.Result(), nil
}

// Result summarizes the execution so far. It is meaningful once Done.
func (e *Execution) Result() *Result {
	n := e.cfg.N
	res := &Result{
		DecideRounds: e.decideRound,
		HaltRounds:   e.haltRound,
		Crashes:      e.crashed,
		Messages:     e.messages,
		Faults:       Faults{Demoted: e.demoted},
		Decisions:    make([]int, n),
		Decided:      make([]bool, n),
		Inputs:       append([]int(nil), e.inputs...),
	}
	for i := range res.Decisions {
		res.Decisions[i] = -1
	}
	// Byzantine-aware validity: only the CORRECT processes' inputs bind
	// the decision (standard weak validity; identical to the fail-stop
	// condition when nothing is corrupted). v0 is their common input, or
	// -1 if they disagree or every process is corrupt.
	v0 := -1
	for i, x := range e.inputs {
		if e.corrupt.Get(i) {
			continue
		}
		if v0 == -1 {
			v0 = x
		} else if x != v0 {
			v0 = -1
			break
		}
	}
	common := -1
	res.Agreement, res.Validity = true, true
	decided := e.decidedColumn()
	for k, a := range e.alive.words {
		for w := a &^ e.corrupt.words[k]; w != 0; w &= w - 1 {
			i := k<<6 | bits.TrailingZeros64(w)
			res.Survivors++
			if !decided.Get(i) {
				res.Agreement = false
				continue
			}
			v := e.decision(i)
			res.Decisions[i] = v
			res.Decided[i] = true
			if common == -1 {
				common = v
			} else if common != v {
				res.Agreement = false
			}
			if v0 != -1 && v != v0 {
				res.Validity = false
			}
		}
	}
	return res
}
