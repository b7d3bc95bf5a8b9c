// Package netsim runs the same sim.Process protocol implementations
// over real concurrency: one goroutine per process, channels as links,
// and a coordinator enforcing the synchronous round structure (the
// standard way lock-step rounds are deployed on an asynchronous
// substrate with a synchronizer).
//
// Because each process's behaviour depends only on its inbox sequence
// and its private rng stream, a netsim execution is bit-for-bit
// equivalent to the sequential sim engine under the same adversary and
// seeds — the equivalence test in this package checks exactly that.
// The coordinator plays the network: it collects every Phase-A output,
// consults the adversary, applies the crash plans, and routes the
// surviving messages.
//
// Unlike the paper's §3.1 model, the coordinator here is NOT a perfect
// synchronizer: it is hardened against a faulty substrate (see
// internal/chaos and DESIGN.md "Fault model vs §3.1"). Per-round
// deadlines with bounded re-polling and exponential backoff recover
// stalled processes; dropped messages are retransmitted, and
// unrecoverable omissions demote the sender to a crash fault (partial
// delivery, exactly CrashPlan semantics) so fail-stop semantics are
// preserved; duplicates are deduplicated; late messages are discarded
// as stale; panics are isolated into crash faults with a structured
// Result annotation. Crash-equivalent chaos faults (demotions, panics)
// are charged to an explicit fault budget distinct from the adversary's
// T; when the budget is exhausted or MaxRounds is hit, Run returns a
// partial Result with fault accounting and a typed error instead of
// hanging.
//
// Limitation: the adversary view's Exec field is nil here (there is no
// clonable execution mid-flight), so look-ahead adversaries like
// valency.LowerBound require the sequential engine, and a forgery from
// a Byzantine adversary ends the run with ErrForgery.
package netsim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"synran/internal/chaos"
	"synran/internal/rng"
	"synran/internal/sim"
)

// ErrFaultBudget reports that the runner's crash-equivalent fault budget
// (Options.FaultBudget) was exhausted: one more demotion or panic would
// have been needed to keep the synchronous abstraction intact, so the
// runner degraded gracefully and returned a partial Result instead.
var ErrFaultBudget = errors.New("netsim: chaos fault budget exhausted")

// ErrForgery reports that the adversary forged Byzantine payloads (a
// sim.Forger). The runner has no corruption model, so it stops instead
// of delivering the corrupt processes' honest messages; forgeries need
// the lock-step engine.
var ErrForgery = errors.New("netsim: Byzantine forgeries need the lock-step engine")

// Options harden the live runner against a faulty substrate. The zero
// value reproduces the perfect-synchronizer behaviour (no injected
// faults, no deadlines — but panics are still isolated, never allowed
// to abort the whole binary).
type Options struct {
	// Injector supplies deterministic substrate faults (nil = none).
	Injector *chaos.Injector
	// RoundDeadline is the wall-clock budget of the first wait for a
	// process's Phase-A output. 0 blocks forever — unless Injector is
	// set, in which case it defaults to 200ms (a chaotic substrate
	// without deadlines could hang).
	RoundDeadline time.Duration
	// Backoff is the wait after the first missed deadline; each further
	// re-poll doubles it (exponential backoff). Defaults to
	// RoundDeadline/2.
	Backoff time.Duration
	// DeadlineMisses is the number of consecutive missed deadline
	// windows after which a process is demoted to a crash fault.
	// Defaults to 3.
	DeadlineMisses int
	// Retransmits bounds the re-send attempts used to recover a dropped
	// or delayed message before the omission demotes the sender.
	// Defaults to 2.
	Retransmits int
	// FaultBudget is the number of crash-equivalent faults (demotions +
	// panics) the runner may absorb, distinct from the adversary's T.
	// The boundary is exact: a budget of k absorbs exactly k faults, and
	// only a (k+1)-th chaos fault ends the run with ErrFaultBudget and a
	// partial Result — so FaultBudget: 0 aborts on the very first chaos
	// fault, never after it (TestFaultBudgetBoundary pins both edges).
	// Adversarial omission demotions (sim.Omitter) draw from the same
	// ledger but are skipped deterministically once it is spent rather
	// than aborting: they are scheduled faults, not substrate surprises,
	// and every lane must degrade them identically. The ≤ t resilience
	// condition of the protocols is the caller's to respect: adversary
	// crashes + FaultBudget ≤ T.
	FaultBudget int
}

// normalized fills in the defaults documented on Options.
func (o Options) normalized() Options {
	if o.Injector != nil && o.RoundDeadline <= 0 {
		o.RoundDeadline = 200 * time.Millisecond
	}
	if o.RoundDeadline > 0 && o.Backoff <= 0 {
		o.Backoff = o.RoundDeadline / 2
	}
	if o.DeadlineMisses <= 0 {
		o.DeadlineMisses = 3
	}
	if o.Retransmits < 0 {
		o.Retransmits = 0
	} else if o.Retransmits == 0 {
		o.Retransmits = 2
	}
	return o
}

// roundIn is what the coordinator hands a process goroutine.
type roundIn struct {
	round int
	inbox []sim.Recv
	fault chaos.ProcFault
}

// phaseOut is what a process goroutine reports after Phase A.
type phaseOut struct {
	round    int
	payload  int64
	send     bool
	stopped  bool
	panicked bool
	panicMsg string
}

// runner is one live execution in flight.
type runner struct {
	cfg    sim.Config
	opts   Options
	n      int
	procs  []sim.Process
	inputs []int
	adv    sim.Adversary

	ins  []chan roundIn
	outs []chan phaseOut
	quit chan struct{}
	wg   sync.WaitGroup

	alive       []bool
	halted      []bool
	decidedSeen []bool
	payloads    []int64
	sending     []bool
	inboxes     [][]sim.Recv
	advRng      *rng.Stream
	advCrashed  int
	// The View's packed copies of alive, halted and sending, refilled
	// each round: the bool columns above are the synchronizer's own.
	viewAlive, viewHalted, viewSending sim.BitSet

	faults   sim.Faults
	notes    []string
	messages int // deliveries so far (the Result.Messages accounting)
	// pendingStale[r] counts delayed message copies scheduled to arrive
	// in round r; the synchronizer discards them as stale on arrival
	// (their round has closed), which is when Faults.Delayed counts them.
	pendingStale map[int]int

	decideRound, haltRound int
}

// Run executes the protocol under adv with one goroutine per process.
// It mirrors sim.Execution's semantics and returns the same Result.
// Unlike the pre-hardening runner, a panicking Process yields a typed
// error with a partial Result instead of aborting the whole binary.
func Run(cfg sim.Config, procs []sim.Process, inputs []int, adv sim.Adversary, advSeed uint64) (*sim.Result, error) {
	return RunChaos(cfg, procs, inputs, adv, advSeed, Options{})
}

// RunChaos executes the protocol on the hardened synchronizer under the
// given chaos options. With a zero-fault injector the execution is
// byte-identical to Run (and to the sequential sim engine). On graceful
// degradation (ErrFaultBudget, sim.ErrMaxRounds) the returned Result is
// non-nil, partial, and carries the fault accounting.
func RunChaos(cfg sim.Config, procs []sim.Process, inputs []int, adv sim.Adversary, advSeed uint64, opts Options) (*sim.Result, error) {
	n := cfg.N
	if n <= 0 || len(procs) != n || len(inputs) != n {
		return nil, fmt.Errorf("netsim: inconsistent sizes: n=%d procs=%d inputs=%d", n, len(procs), len(inputs))
	}
	if cfg.T < 0 || cfg.T > n {
		return nil, fmt.Errorf("netsim: T = %d out of [0, %d]", cfg.T, n)
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = sim.DefaultMaxRounds(n)
	}
	r := &runner{
		cfg: cfg, opts: opts.normalized(), n: n,
		procs: procs, inputs: inputs, adv: adv,
		ins:  make([]chan roundIn, n),
		outs: make([]chan phaseOut, n),
		quit: make(chan struct{}),

		alive:        make([]bool, n),
		halted:       make([]bool, n),
		decidedSeen:  make([]bool, n),
		payloads:     make([]int64, n),
		sending:      make([]bool, n),
		inboxes:      make([][]sim.Recv, n),
		advRng:       rng.New(advSeed),
		pendingStale: map[int]int{},
	}
	for i := 0; i < n; i++ {
		r.alive[i] = true
		r.ins[i] = make(chan roundIn)
		// Capacity 1 so a goroutine that recovers from a stall after its
		// demotion can park its (never read) output without blocking.
		r.outs[i] = make(chan phaseOut, 1)
		r.wg.Add(1)
		go r.procLoop(procs[i], r.ins[i], r.outs[i])
	}
	defer func() {
		close(r.quit) // release hung or stalled goroutines first
		for _, ch := range r.ins {
			close(ch)
		}
		r.wg.Wait()
	}()
	return r.run()
}

// procLoop is the per-process goroutine: it executes one Phase A per
// roundIn, isolating panics and honouring injected stalls and hangs.
func (r *runner) procLoop(p sim.Process, in chan roundIn, out chan phaseOut) {
	defer r.wg.Done()
	for msg := range in {
		o, ok := r.execRound(p, msg)
		if !ok {
			return // released from a hang by shutdown; never report
		}
		out <- o
	}
}

// execRound runs one Phase A on p, converting a panic (injected or the
// protocol's own) into a structured phaseOut instead of an abort.
// ok=false means the goroutine was released by shutdown mid-fault.
func (r *runner) execRound(p sim.Process, msg roundIn) (o phaseOut, ok bool) {
	o = phaseOut{round: msg.round}
	ok = true
	defer func() {
		if rec := recover(); rec != nil {
			o.panicked = true
			o.panicMsg = fmt.Sprint(rec)
		}
	}()
	if msg.fault.Hang {
		<-r.quit
		return o, false
	}
	if msg.fault.Stall > 0 {
		t := time.NewTimer(msg.fault.Stall)
		select {
		case <-t.C:
		case <-r.quit:
			t.Stop()
			return o, false
		}
	}
	if msg.fault.Panic {
		panic(fmt.Sprintf("chaos: injected panic in round %d", msg.round))
	}
	o.payload, o.send = p.Round(msg.round, msg.inbox)
	o.stopped = p.Stopped()
	return o, true
}

// maxBackoffShift caps the exponential backoff at 64× Backoff. Go's
// shift does not saturate — Backoff<<63 flips the sign and wider shifts
// zero out — and timer.Reset with a non-positive duration fires
// immediately, so an unclamped shift with DeadlineMisses > 64 silently
// turned backoff into a busy spin. TestBackoffWaitClamped and
// TestManyDeadlineMissesNoBusySpin pin the fix.
const maxBackoffShift = 6

// backoffWait returns the wait before re-poll number misses (1-based):
// Backoff, 2·Backoff, 4·Backoff, ..., capped at Backoff<<maxBackoffShift.
func backoffWait(backoff time.Duration, misses int) time.Duration {
	shift := misses - 1
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	return backoff << shift
}

// pollOut waits for process i's round-r Phase-A output. Without a
// deadline it blocks. With one, it waits up to DeadlineMisses windows
// (RoundDeadline, then Backoff, 2·Backoff, ...), re-polling after each
// miss; ok=false means every window was missed and i must be demoted.
func (r *runner) pollOut(i, round int) (phaseOut, int, bool) {
	if r.opts.RoundDeadline <= 0 {
		for {
			o := <-r.outs[i]
			if o.round == round {
				return o, 0, true
			}
		}
	}
	wait := r.opts.RoundDeadline
	misses := 0
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		select {
		case o := <-r.outs[i]:
			if o.round != round {
				continue // stale output from a pre-demotion round; discard
			}
			return o, misses, true
		case <-timer.C:
			misses++
			if m := r.cfg.Metrics; m != nil {
				m.DeadlineMisses.Inc(r.cfg.MetricsShard)
			}
			if misses >= r.opts.DeadlineMisses {
				return phaseOut{}, misses, false
			}
			if m := r.cfg.Metrics; m != nil {
				m.BackoffRepolls.Inc(r.cfg.MetricsShard)
			}
			wait = backoffWait(r.opts.Backoff, misses)
			timer.Reset(wait)
		}
	}
}

// spendBudget charges one crash-equivalent chaos fault, or reports that
// the budget is exhausted (the graceful-degradation path).
func (r *runner) spendBudget(round, victim int, kind string) error {
	if r.faults.CrashEquivalent() >= r.opts.FaultBudget {
		return fmt.Errorf("%w: cannot absorb %s of p%d in round %d (budget %d spent)",
			ErrFaultBudget, kind, victim, round, r.opts.FaultBudget)
	}
	return nil
}

// kill converts process victim into a crash fault: it stops sending and
// receiving from this round on. delivered is the number of receivers
// that already got its round message (0 when it never sent).
func (r *runner) kill(round, victim, delivered int, note string) {
	r.alive[victim] = false
	r.sending[victim] = false
	r.notes = append(r.notes, fmt.Sprintf("round %d: p%d %s", round, victim, note))
	if obs := r.cfg.Observer; obs != nil {
		obs.OnCrash(round, victim, delivered)
	}
}

// abortPhaseA prepares the partial Result for a budget-exhausted abort
// during Phase A of the given round. The failing process is dead in
// reality even though the budget could not absorb it, and every process
// whose round output was not consumed yet is drained — or, if it never
// responds, abandoned as dead — so that result() cannot read a Process
// a goroutine is still driving.
func (r *runner) abortPhaseA(round, failed int, pending []bool) *sim.Result {
	r.alive[failed] = false
	r.sending[failed] = false
	for j := 0; j < r.n; j++ {
		if !pending[j] {
			continue
		}
		if _, _, ok := r.pollOut(j, round); !ok {
			r.alive[j] = false
			r.sending[j] = false
			r.notes = append(r.notes, fmt.Sprintf("round %d: p%d abandoned during abort (no response)", round, j))
		}
	}
	return r.result(true)
}

func (r *runner) active() bool {
	for i := range r.alive {
		if r.alive[i] && !r.halted[i] {
			return true
		}
	}
	return false
}

// run drives the rounds. On graceful degradation it returns a partial
// Result alongside the typed error.
func (r *runner) run() (*sim.Result, error) {
	m, shard := r.cfg.Metrics, r.cfg.MetricsShard
	for round := 1; r.active(); round++ {
		if round > r.cfg.MaxRounds {
			return r.result(true), fmt.Errorf("%w (netsim, adversary %q)", sim.ErrMaxRounds, r.adv.Name())
		}
		// Delayed copies scheduled for this round arrive now; their round
		// has closed, so the synchronizer discards them as stale.
		if c := r.pendingStale[round]; c > 0 {
			r.faults.Delayed += c
			if m != nil {
				m.MsgDelayed.Add(shard, uint64(c))
			}
			delete(r.pendingStale, round)
		}

		// Phase A, concurrently on every live process goroutine. pending
		// tracks processes whose round output has not been consumed yet:
		// on an abort mid-poll they must be drained (or abandoned) before
		// assembling the partial Result, because their goroutines may
		// still be driving the Process state machines.
		pending := make([]bool, r.n)
		for i := 0; i < r.n; i++ {
			if !r.alive[i] || r.halted[i] {
				r.sending[i] = false
				continue
			}
			var fault chaos.ProcFault
			if r.opts.Injector != nil {
				fault = r.opts.Injector.ProcFault(round, i)
				if fault.Stall > 0 {
					r.faults.Stalled++
					if m != nil {
						m.Stalls.Inc(shard)
					}
				}
			}
			r.ins[i] <- roundIn{round: round, inbox: r.inboxes[i], fault: fault}
			pending[i] = true
		}
		stoppedNow := make([]bool, r.n)
		for i := 0; i < r.n; i++ {
			if !pending[i] {
				continue
			}
			o, misses, ok := r.pollOut(i, round)
			pending[i] = false
			switch {
			case !ok:
				if err := r.spendBudget(round, i, "deadline demotion"); err != nil {
					return r.abortPhaseA(round, i, pending), err
				}
				r.faults.Demoted++
				if m != nil {
					m.Demotions.Inc(shard)
				}
				r.kill(round, i, 0, fmt.Sprintf("demoted (missed %d consecutive deadlines)", misses))
			case o.panicked:
				if err := r.spendBudget(round, i, "panic"); err != nil {
					return r.abortPhaseA(round, i, pending), err
				}
				r.faults.Panics++
				if m != nil {
					m.Panics.Inc(shard)
				}
				r.kill(round, i, 0, fmt.Sprintf("panicked: %s", o.panicMsg))
			default:
				r.payloads[i], r.sending[i], stoppedNow[i] = o.payload, o.send, o.stopped
			}
		}

		// Consult the adversary (no Exec: see package doc).
		r.viewAlive.Pack(r.alive)
		r.viewHalted.Pack(r.halted)
		r.viewSending.Pack(r.sending)
		view := sim.NewView(sim.ViewState{
			Round:    round,
			N:        r.n,
			T:        r.cfg.T,
			Budget:   r.cfg.T - r.advCrashed,
			Alive:    &r.viewAlive,
			Halted:   &r.viewHalted,
			Sending:  &r.viewSending,
			Payloads: r.payloads,
			Procs:    r.procs,
			Rng:      r.advRng,
		})
		if obs := r.cfg.Observer; obs != nil {
			obs.OnRound(round, view)
		}
		// sim.Dispatch consults the adversary on the pre-crash view in
		// the engine's one order; the synchronizer applies the plan itself.
		p := sim.Dispatch(r.adv, view)
		if len(p.Forgeries) > 0 {
			return nil, fmt.Errorf("%w (adversary %q, round %d)", ErrForgery, r.adv.Name(), round)
		}
		deliver := make([]*sim.BitSet, r.n)
		for _, plan := range p.Crashes {
			v := plan.Victim
			if v < 0 || v >= r.n || !r.alive[v] || r.advCrashed >= r.cfg.T {
				continue
			}
			r.alive[v] = false
			r.advCrashed++
			if m != nil {
				m.CrashesAdversary.Inc(shard)
			}
			if plan.Deliver != nil {
				deliver[v] = plan.Deliver.Clone()
			} else {
				deliver[v] = sim.NewBitSet(r.n)
			}
			if obs := r.cfg.Observer; obs != nil {
				d := 0
				if r.sending[v] {
					d = deliver[v].Count()
				}
				obs.OnCrash(round, v, d)
			}
		}
		// Adversarial omission demotions, after the crashes: the victim's
		// outgoing links are silenced with CrashPlan partial-delivery
		// semantics, charged to the fault budget as a demotion. Unlike
		// substrate faults these never abort the run — plans past the
		// budget are skipped deterministically, exactly as on the
		// lock-step engines (sim.FinishRoundOmitted), so all lanes agree.
		// The victim keeps its sending flag: its in-flight round message
		// still reaches the receivers its Deliver mask names.
		omitSpent := r.faults.CrashEquivalent()
		for _, plan := range p.Omissions {
			v := plan.Victim
			if v < 0 || v >= r.n || !r.alive[v] || omitSpent >= r.opts.FaultBudget {
				continue
			}
			r.alive[v] = false
			r.faults.Demoted++
			omitSpent++
			if m != nil {
				m.Demotions.Inc(shard)
			}
			if plan.Deliver != nil {
				deliver[v] = plan.Deliver.Clone()
			} else {
				deliver[v] = sim.NewBitSet(r.n)
			}
			if obs := r.cfg.Observer; obs != nil {
				d := 0
				if r.sending[v] {
					d = deliver[v].Count()
				}
				obs.OnCrash(round, v, d)
			}
		}

		// Phase B: route messages through the chaotic substrate.
		next := make([][]sim.Recv, r.n)
		roundDelivered := 0
		for i := 0; i < r.n; i++ {
			if !r.sending[i] {
				continue
			}
			sent := 0
			var omitted []int
			for j := 0; j < r.n; j++ {
				if j == i || !r.alive[j] || r.halted[j] {
					continue
				}
				if deliver[i] != nil && !deliver[i].Get(j) {
					continue
				}
				if stoppedNow[j] {
					// The receiver halted in this round's Phase A, so the
					// channel write would never be read and the synchronizer
					// elides it. In the §3.1 model the delivery still happens
					// (the sequential engine counts it): on the perfect
					// zero-chaos substrate, count it so Result.Messages
					// matches the sequential engine exactly. Under chaos the
					// transmission is never attempted, so it draws no fates
					// and absorbs no faults — accounting there is unchanged.
					if r.opts.Injector == nil {
						roundDelivered++
					}
					continue
				}
				if r.transmit(round, i, j) {
					next[j] = append(next[j], sim.Recv{From: i, Payload: r.payloads[i]})
					sent++
					roundDelivered++
				} else {
					omitted = append(omitted, j)
				}
			}
			if len(omitted) > 0 && r.alive[i] {
				// Unrecovered omission from a live sender: fail-stop
				// semantics demand the sender crash, with exactly the
				// partial delivery that actually happened (the CrashPlan
				// observable). Charged to the chaos budget, not the
				// adversary's.
				if err := r.spendBudget(round, i, "omission demotion"); err != nil {
					return r.result(true), err
				}
				r.faults.Demoted++
				if m != nil {
					m.Demotions.Inc(shard)
				}
				r.kill(round, i, sent, fmt.Sprintf("demoted (unrecovered omission to %d receiver(s))", len(omitted)))
			}
		}
		r.inboxes = next
		r.messages += roundDelivered
		if m != nil {
			m.Messages.Add(shard, uint64(roundDelivered))
		}

		// Bookkeeping mirrors the sequential engine.
		allDecided := true
		anyActive := false
		for i := 0; i < r.n; i++ {
			if !r.alive[i] {
				continue
			}
			if dv, ok := r.procs[i].Decided(); !ok {
				allDecided = false
			} else if !r.decidedSeen[i] {
				r.decidedSeen[i] = true
				if obs := r.cfg.Observer; obs != nil {
					obs.OnDecide(round, i, dv)
				}
				if m != nil {
					m.Decisions.Inc(shard)
				}
			}
			if !r.halted[i] && stoppedNow[i] {
				r.halted[i] = true
				if obs := r.cfg.Observer; obs != nil {
					obs.OnHalt(round, i)
				}
				if m != nil {
					m.Halts.Inc(shard)
				}
			}
			if r.alive[i] && !r.halted[i] {
				anyActive = true
			}
		}
		if r.decideRound == 0 && allDecided {
			r.decideRound = round
			if m != nil {
				m.DecideRounds.Observe(shard, uint64(round))
			}
		}
		if r.haltRound == 0 && !anyActive {
			r.haltRound = round
		}
		if m != nil {
			m.Rounds.Inc(shard)
		}
	}
	return r.result(false), nil
}

// transmit pushes one message through the injector, retransmitting after
// drop/delay faults up to the retry bound. It reports whether a copy was
// delivered within the round. Duplicates are delivered exactly once (the
// synchronizer deduplicates); delayed copies are queued and later
// discarded as stale.
func (r *runner) transmit(round, from, to int) bool {
	inj := r.opts.Injector
	if inj == nil {
		return true
	}
	m, shard := r.cfg.Metrics, r.cfg.MetricsShard
	for attempt := 0; attempt <= r.opts.Retransmits; attempt++ {
		if attempt > 0 && m != nil {
			m.MsgRetransmitted.Inc(shard)
		}
		fate, k := inj.MessageFate(round, from, to, attempt)
		switch fate {
		case chaos.FateDeliver:
			return true
		case chaos.FateDup:
			r.faults.Duplicated++
			if m != nil {
				m.MsgDuplicated.Inc(shard)
			}
			return true
		case chaos.FateDrop:
			r.faults.Dropped++
			if m != nil {
				m.MsgDropped.Inc(shard)
			}
		case chaos.FateDelay:
			r.pendingStale[round+k]++
		}
	}
	return false
}

// result assembles the sim.Result (semantics identical to the
// sequential engine's Result method), attaching the fault accounting.
func (r *runner) result(partial bool) *sim.Result {
	res := assemble(r.procs, r.inputs, r.alive, r.decideRound, r.haltRound, r.advCrashed)
	// Message accounting used to be left at zero here — a real divergence
	// from the sequential engine that the conformance harness flushed out.
	res.Messages = r.messages
	// Delayed copies still in flight when the run ends would have been
	// discarded as stale; account for them now so Faults is a function of
	// (seed, config) alone, not of when the run terminated.
	for _, c := range r.pendingStale {
		r.faults.Delayed += c
		if m := r.cfg.Metrics; m != nil {
			m.MsgDelayed.Add(r.cfg.MetricsShard, uint64(c))
		}
	}
	res.Faults = r.faults
	res.FaultNotes = r.notes
	res.Partial = partial
	return res
}

// assemble builds a sim.Result identical in semantics to the sequential
// engine's Result method.
func assemble(procs []sim.Process, inputs []int, alive []bool, decideRound, haltRound, crashed int) *sim.Result {
	n := len(procs)
	res := &sim.Result{
		DecideRounds: decideRound,
		HaltRounds:   haltRound,
		Crashes:      crashed,
		Decisions:    make([]int, n),
		Decided:      make([]bool, n),
		Inputs:       append([]int(nil), inputs...),
	}
	for i := range res.Decisions {
		res.Decisions[i] = -1
	}
	common := -1
	agreement := true
	for i, p := range procs {
		if !alive[i] {
			continue
		}
		res.Survivors++
		v, ok := p.Decided()
		if !ok {
			agreement = false
			continue
		}
		res.Decisions[i] = v
		res.Decided[i] = true
		if common == -1 {
			common = v
		} else if common != v {
			agreement = false
		}
	}
	res.Agreement = agreement
	res.Validity = true
	allSame := true
	for _, x := range inputs[1:] {
		if x != inputs[0] {
			allSame = false
		}
	}
	if allSame && n > 0 {
		for i := range procs {
			if res.Decided[i] && res.Decisions[i] != inputs[0] {
				res.Validity = false
			}
		}
	}
	if res.Survivors == 0 {
		res.Agreement = true
	}
	return res
}
