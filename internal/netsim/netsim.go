// Package netsim runs the same sim.Process protocol implementations
// over real concurrency: one goroutine per process, channels as links,
// and a coordinator enforcing the synchronous round structure (the
// standard way lock-step rounds are deployed on an asynchronous
// substrate with a synchronizer).
//
// Because each process's behaviour depends only on its inbox sequence
// and its private rng stream, a netsim execution is bit-for-bit
// equivalent to the sequential sim engine under the same adversary and
// seeds — the equivalence tests in this package check exactly that.
// The coordinator plays the network: it collects every Phase-A output,
// consults the adversary, applies the crash plans, and routes the
// surviving messages.
//
// Unlike the paper's §3.1 model, the links may lose messages: an
// internal/chaos injector drops transmission attempts (see DESIGN.md
// "Fault model vs §3.1"). The coordinator re-sends a lost message up to
// twice. A live sender whose message is still lost to some receiver is
// demoted to a crash fault with exactly the partial delivery that
// happened (CrashPlan semantics), so fail-stop semantics — and with
// them the protocols' safety — are preserved. Demotions are charged to
// an explicit fault budget distinct from the adversary's T; when the
// budget is exhausted or MaxRounds is hit, Run returns a partial Result
// with fault accounting and a typed error instead of hanging. A process
// that panics ends the run with an error naming it and the round.
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

	"synran/internal/chaos"
	"synran/internal/rng"
	"synran/internal/sim"
)

// ErrFaultBudget reports that the runner's demotion budget
// (Options.FaultBudget) was exhausted: one more demotion would have
// been needed to keep the synchronous abstraction intact, so the runner
// degraded gracefully and returned a partial Result instead.
var ErrFaultBudget = errors.New("netsim: chaos fault budget exhausted")

// ErrForgery reports that the adversary forged Byzantine payloads (a
// sim.Forger). The runner has no corruption model, so it stops instead
// of delivering the corrupt processes' honest messages; forgeries need
// the lock-step engine.
var ErrForgery = errors.New("netsim: Byzantine forgeries need the lock-step engine")

// Options configure the live runner's lossy links. The zero value is
// the perfect synchronizer: every message arrives.
type Options struct {
	// Injector decides which transmission attempts are lost (nil = none).
	Injector *chaos.Injector
	// FaultBudget is the number of demotions the runner may absorb,
	// distinct from the adversary's T. The boundary is exact: a budget
	// of k absorbs exactly k demotions, and only a (k+1)-th unrecovered
	// omission ends the run with ErrFaultBudget and a partial Result —
	// so FaultBudget: 0 aborts on the very first one, never after it
	// (TestFaultBudgetBoundary pins both edges). Adversarial omission
	// demotions (sim.Omitter) draw from the same ledger but are skipped
	// deterministically once it is spent rather than aborting: they are
	// scheduled faults, not substrate surprises, and every lane must
	// degrade them identically. The ≤ t resilience condition of the
	// protocols is the caller's to respect: adversary crashes +
	// FaultBudget ≤ T.
	FaultBudget int
}

// retransmits is the number of re-sends of a lost message before the
// omission demotes its sender.
const retransmits = 2

// roundIn is what the coordinator hands a process goroutine.
type roundIn struct {
	round int
	inbox []sim.Recv
}

// phaseOut is what a process goroutine reports after Phase A.
type phaseOut struct {
	payload   int64
	send      bool
	stopped   bool
	recovered any // the panic value, when Phase A panicked
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

	decideRound, haltRound int
}

// Run executes the protocol under adv with one goroutine per process
// and perfect links. It mirrors sim.Execution's semantics and returns
// the same Result.
func Run(cfg sim.Config, procs []sim.Process, inputs []int, adv sim.Adversary, advSeed uint64) (*sim.Result, error) {
	return RunChaos(cfg, procs, inputs, adv, advSeed, Options{})
}

// RunChaos executes the protocol over links that lose what
// opts.Injector drops. With a zero-rate injector the execution, its
// Result included, is identical to Run's (and to the sequential sim
// engine's). On graceful degradation (ErrFaultBudget, sim.ErrMaxRounds)
// the returned Result is non-nil, partial, and carries the fault
// accounting.
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
		cfg: cfg, opts: opts, n: n,
		procs: procs, inputs: inputs, adv: adv,
		ins:  make([]chan roundIn, n),
		outs: make([]chan phaseOut, n),

		alive:       make([]bool, n),
		halted:      make([]bool, n),
		decidedSeen: make([]bool, n),
		payloads:    make([]int64, n),
		sending:     make([]bool, n),
		inboxes:     make([][]sim.Recv, n),
		advRng:      rng.New(advSeed),
	}
	for i := 0; i < n; i++ {
		r.alive[i] = true
		r.ins[i] = make(chan roundIn)
		r.outs[i] = make(chan phaseOut)
		r.wg.Add(1)
		go r.procLoop(procs[i], r.ins[i], r.outs[i])
	}
	defer func() {
		for _, ch := range r.ins {
			close(ch)
		}
		r.wg.Wait()
	}()
	return r.run()
}

// procLoop is the per-process goroutine: it executes one Phase A per
// roundIn and reports it.
func (r *runner) procLoop(p sim.Process, in <-chan roundIn, out chan<- phaseOut) {
	defer r.wg.Done()
	for msg := range in {
		out <- execRound(p, msg)
	}
}

// execRound runs one Phase A on p. A panic is recovered into the
// output, so the coordinator ends the run with an error instead of the
// goroutine taking the whole binary down.
func execRound(p sim.Process, msg roundIn) (o phaseOut) {
	defer func() { o.recovered = recover() }()
	o.payload, o.send = p.Round(msg.round, msg.inbox)
	o.stopped = p.Stopped()
	return o
}

func (r *runner) active() bool {
	for i := range r.alive {
		if r.alive[i] && !r.halted[i] {
			return true
		}
	}
	return false
}

// silence applies one crash or omission plan: its victim leaves the
// live set, and the victim's round message reaches only the receivers
// the plan's Deliver mask names (nil = no one).
func (r *runner) silence(round int, plan sim.CrashPlan, deliver []*sim.BitSet) {
	v := plan.Victim
	r.alive[v] = false
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

// run drives the rounds. On graceful degradation it returns a partial
// Result alongside the typed error.
func (r *runner) run() (*sim.Result, error) {
	m, shard := r.cfg.Metrics, r.cfg.MetricsShard
	for round := 1; r.active(); round++ {
		if round > r.cfg.MaxRounds {
			return r.result(true), fmt.Errorf("%w (netsim, adversary %q)", sim.ErrMaxRounds, r.adv.Name())
		}

		// Phase A, concurrently on every live process goroutine. Every
		// goroutine reports before the coordinator reads any Process, so
		// nothing below races with a Phase A still running.
		for i := 0; i < r.n; i++ {
			r.sending[i] = false
			if r.alive[i] && !r.halted[i] {
				r.ins[i] <- roundIn{round: round, inbox: r.inboxes[i]}
			}
		}
		var failed error
		stoppedNow := make([]bool, r.n)
		for i := 0; i < r.n; i++ {
			if !r.alive[i] || r.halted[i] {
				continue
			}
			o := <-r.outs[i]
			if o.recovered != nil && failed == nil {
				failed = fmt.Errorf("netsim: p%d panicked in round %d: %v", i, round, o.recovered)
			}
			r.payloads[i], r.sending[i], stoppedNow[i] = o.payload, o.send, o.stopped
		}
		if failed != nil {
			return nil, failed
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
			r.advCrashed++
			if m != nil {
				m.CrashesAdversary.Inc(shard)
			}
			r.silence(round, plan, deliver)
		}
		// Adversarial omission demotions, after the crashes: the victim's
		// outgoing links are silenced with CrashPlan partial-delivery
		// semantics, charged to the fault budget as a demotion. Unlike
		// lost messages these never abort the run — plans past the
		// budget are skipped deterministically, exactly as on the
		// lock-step engines (sim.FinishRoundOmitted), so all lanes agree.
		// The victim keeps its sending flag: its in-flight round message
		// still reaches the receivers its Deliver mask names.
		for _, plan := range p.Omissions {
			v := plan.Victim
			if v < 0 || v >= r.n || !r.alive[v] || r.faults.Demoted >= r.opts.FaultBudget {
				continue
			}
			r.faults.Demoted++
			if m != nil {
				m.Demotions.Inc(shard)
			}
			r.silence(round, plan, deliver)
		}

		// Phase B: route messages over the lossy links.
		next := make([][]sim.Recv, r.n)
		roundDelivered := 0
		for i := 0; i < r.n; i++ {
			if !r.sending[i] {
				continue
			}
			sent, omitted := 0, 0
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
					// elides it: no transmission, so no fate is drawn. In
					// the §3.1 model the delivery still happens, and the
					// sequential engine counts it, so count it here too.
					roundDelivered++
					continue
				}
				if r.transmit(round, i, j) {
					next[j] = append(next[j], sim.Recv{From: i, Payload: r.payloads[i]})
					sent++
					roundDelivered++
				} else {
					omitted++
				}
			}
			if omitted > 0 && r.alive[i] {
				// Unrecovered omission from a live sender: fail-stop
				// semantics demand the sender crash, with exactly the
				// partial delivery that actually happened (the CrashPlan
				// observable). Charged to the fault budget, not the
				// adversary's.
				if r.faults.Demoted >= r.opts.FaultBudget {
					return r.result(true), fmt.Errorf("%w: cannot absorb omission demotion of p%d in round %d (budget %d spent)",
						ErrFaultBudget, i, round, r.opts.FaultBudget)
				}
				r.faults.Demoted++
				if m != nil {
					m.Demotions.Inc(shard)
				}
				r.alive[i] = false
				r.notes = append(r.notes, fmt.Sprintf("round %d: p%d demoted (unrecovered omission to %d receiver(s))", round, i, omitted))
				if obs := r.cfg.Observer; obs != nil {
					obs.OnCrash(round, i, sent)
				}
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

// transmit pushes one message through the injector, re-sending a lost
// copy up to retransmits times. It reports whether a copy arrived.
func (r *runner) transmit(round, from, to int) bool {
	inj := r.opts.Injector
	if inj == nil {
		return true
	}
	m, shard := r.cfg.Metrics, r.cfg.MetricsShard
	for attempt := 0; attempt <= retransmits; attempt++ {
		if attempt > 0 && m != nil {
			m.MsgRetransmitted.Inc(shard)
		}
		if !inj.Drop(round, from, to, attempt) {
			return true
		}
		r.faults.Dropped++
		if m != nil {
			m.MsgDropped.Inc(shard)
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
