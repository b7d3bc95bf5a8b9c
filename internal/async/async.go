// Package async implements the asynchronous message-passing model the
// paper contrasts its synchronous results against (Section 1.2): no
// rounds, an adversarial scheduler with full information chooses which
// in-flight message to deliver next and may fail-stop up to t processes.
// FLP impossibility lives here — a deterministic protocol admits
// non-terminating schedules — as does the regime of Aspnes' asynchronous
// lower bound on coin flips, both reproduced by experiment E15 with the
// asynchronous Ben-Or protocol in internal/async/benor.go.
//
// The engine is deterministic given the scheduler's choices: pending
// messages carry sequence numbers, and schedulers pick among them by
// index, so a seed reproduces an execution exactly. A scheduler reads
// the engine's state through a read-only View, which copies nothing.
//
// Every Ben-Or trial in the repository (asyncsim, E15, the conformance
// async lane, -scenario files) is built and run by scenario.RunAsync,
// which names the schedulers and coins; examples/flploop and
// BenchmarkAsyncSplitter drive this package directly to show and
// measure its API.
package async

import (
	"errors"
	"fmt"

	"synran/internal/rng"
)

// Send is an outgoing message request from a process: To = Broadcast
// fans out to every other process.
type Send struct {
	To      int
	Payload int64
}

// Broadcast is the Send.To wildcard.
const Broadcast = -1

// Message is one in-flight message.
type Message struct {
	Seq     int // global sequence number (creation order)
	From    int
	To      int
	Payload int64
}

// Process is an event-driven asynchronous protocol participant.
type Process interface {
	// Init returns the messages sent before any delivery.
	Init() []Send
	// Deliver consumes one message and returns the sends it triggers.
	Deliver(from int, payload int64) []Send
	// Decided reports the irrevocable decision, if any.
	Decided() (int, bool)
	// Halted reports that the process will ignore all future deliveries.
	Halted() bool
}

// View is the scheduler's full-information snapshot. The engine hands
// the same View to every Next call of one execution and rewrites its
// scalar fields before each call. Alive flags, pending messages and
// processes are exposed only through read-only accessors over the
// engine's own state, so a View costs no copy, a scheduler cannot
// mutate engine state through it, and it is valid only for the duration
// of the call it is passed to.
type View struct {
	Step   int
	N, T   int
	Budget int
	Rng    *rng.Stream

	alive   []bool
	pending []Message // in Seq order
	procs   []Process
}

// IsAlive reports whether process i has not crashed.
func (v *View) IsAlive(i int) bool { return v.alive[i] }

// NumPending returns the number of in-flight messages.
func (v *View) NumPending() int { return len(v.pending) }

// Pending returns a copy of the i-th in-flight message; the pending set
// is in Seq order, and Action.Deliver indexes it.
func (v *View) Pending(i int) Message { return v.pending[i] }

// Proc exposes process i's state machine (full-information model). The
// returned Process is live engine state: a scheduler may inspect it but
// must not call Init or Deliver on it.
func (v *View) Proc(i int) Process { return v.procs[i] }

// Action is one scheduler decision: crash a process (Victim >= 0), or
// deliver the pending message at index Deliver.
type Action struct {
	Victim  int // -1 = no crash this step
	Deliver int // index into Pending; ignored when a crash empties it
}

// Scheduler is the asynchronous adversary: message scheduling plus
// fail-stop crashes, with full information.
type Scheduler interface {
	Name() string
	Next(v *View) Action
}

// DeliveryObserver is the optional scheduler extension the engine uses
// to report the message it ACTUALLY delivered each step. A scheduler
// must base any internal tally on Delivered, never on the message it
// picked in Next: when the same Action also crashes a victim, the
// engine recompacts pending, and the chosen message may have died with
// the crash — in which case a different message is delivered.
type DeliveryObserver interface {
	Delivered(m Message)
}

// Config sizes an asynchronous execution.
type Config struct {
	N        int
	T        int
	MaxSteps int // delivery cap; 0 picks a generous default
}

// DefaultMaxSteps bounds executions: enough for many phases of a
// quorum-based protocol.
func DefaultMaxSteps(n int) int { return 2000 * n }

// ErrMaxSteps reports that the schedule did not let the protocol finish
// — for a randomized protocol under a fair scheduler this is
// probability-zero; for a deterministic protocol under the FLP-style
// scheduler it is the expected outcome.
var ErrMaxSteps = errors.New("async: execution exceeded MaxSteps before every correct process decided")

// Result summarizes an asynchronous execution.
type Result struct {
	Steps     int // messages delivered
	Crashes   int
	Survivors int
	Decisions []int
	Decided   []bool
	Agreement bool
	Validity  bool
	Inputs    []int
}

// DecidedValue mirrors sim.Result.DecidedValue.
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

// Execution drives asynchronous processes under a scheduler.
type Execution struct {
	cfg    Config
	procs  []Process
	inputs []int
	alive  []bool
	// pending is kept in seq order; delivery removes by index.
	pending []Message
	seq     int
	steps   int
	crashes int
	advRng  *rng.Stream

	v View // the View handed to schedulers, reused across steps
}

// NewExecution assembles an asynchronous execution.
func NewExecution(cfg Config, procs []Process, inputs []int, seed uint64) (*Execution, error) {
	if cfg.N <= 0 || len(procs) != cfg.N || len(inputs) != cfg.N {
		return nil, fmt.Errorf("async: inconsistent sizes n=%d procs=%d inputs=%d",
			cfg.N, len(procs), len(inputs))
	}
	if cfg.T < 0 || cfg.T >= cfg.N {
		return nil, fmt.Errorf("async: T = %d out of [0, n-1]", cfg.T)
	}
	if cfg.MaxSteps < 0 {
		return nil, fmt.Errorf("async: MaxSteps = %d, want >= 0 (0 picks the default)", cfg.MaxSteps)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps(cfg.N)
	}
	e := &Execution{
		cfg:    cfg,
		procs:  procs,
		inputs: append([]int(nil), inputs...),
		alive:  make([]bool, cfg.N),
		advRng: rng.New(seed),
	}
	for i := range e.alive {
		e.alive[i] = true
	}
	for i, p := range procs {
		e.enqueue(i, p.Init())
	}
	return e, nil
}

// enqueue expands a process's sends into pending messages.
func (e *Execution) enqueue(from int, sends []Send) {
	for _, s := range sends {
		if s.To == Broadcast {
			for j := 0; j < e.cfg.N; j++ {
				if j != from {
					e.push(from, j, s.Payload)
				}
			}
			continue
		}
		if s.To < 0 || s.To >= e.cfg.N || s.To == from {
			continue
		}
		e.push(from, s.To, s.Payload)
	}
}

// push queues one message under the next sequence number. A message to
// a dead or halted receiver still consumes its number but is dropped on
// the spot, exactly as compactPending would drop it.
func (e *Execution) push(from, to int, payload int64) {
	if e.alive[to] && !e.procs[to].Halted() {
		e.pending = append(e.pending, Message{Seq: e.seq, From: from, To: to, Payload: payload})
	}
	e.seq++
}

// done reports whether every correct process has decided.
func (e *Execution) done() bool {
	for i, p := range e.procs {
		if !e.alive[i] {
			continue
		}
		if _, ok := p.Decided(); !ok {
			return false
		}
	}
	return true
}

// view points the execution's reusable View at the current state. Every
// scalar field is rewritten, so a scheduler that overwrote one changes
// nothing the engine or the next step reads.
func (e *Execution) view() *View {
	e.v = View{
		Step:    e.steps,
		N:       e.cfg.N,
		T:       e.cfg.T,
		Budget:  e.cfg.T - e.crashes,
		Rng:     e.advRng,
		alive:   e.alive,
		pending: e.pending,
		procs:   e.procs,
	}
	return &e.v
}

// findSeq locates the message with the given sequence number in a
// Seq-ordered pending slice by binary search; -1 = gone.
func findSeq(pending []Message, seq int) int {
	lo, hi := 0, len(pending)
	for lo < hi {
		mid := (lo + hi) / 2
		if pending[mid].Seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(pending) && pending[lo].Seq == seq {
		return lo
	}
	return -1
}

// Run drives the execution until every correct process decides, the
// schedule starves (no deliverable messages), or MaxSteps is hit.
func (e *Execution) Run(sched Scheduler) (*Result, error) {
	// pending stays compact from here on: push never queues a message to
	// a dead or halted receiver, and the two events that can strand one
	// already queued, a crash and a delivery that halts its receiver,
	// recompact on the spot.
	e.compactPending()
	for !e.done() {
		if e.steps >= e.cfg.MaxSteps {
			return nil, fmt.Errorf("%w (scheduler %q, %d steps)", ErrMaxSteps, sched.Name(), e.steps)
		}
		if len(e.pending) == 0 {
			// Starvation with undecided correct processes: in the crash
			// model this means the protocol needed more messages than
			// exist — count it as non-termination.
			return nil, fmt.Errorf("%w (no pending messages after %d steps)", ErrMaxSteps, e.steps)
		}
		act := sched.Next(e.view())
		// Resolve the chosen message BY IDENTITY (its Seq) before any
		// crash processing: indices into pending are not stable across
		// the recompaction a crash triggers.
		chosenSeq := -1
		if act.Deliver >= 0 && act.Deliver < len(e.pending) {
			chosenSeq = e.pending[act.Deliver].Seq
		}
		if act.Victim >= 0 && act.Victim < e.cfg.N && e.alive[act.Victim] && e.crashes < e.cfg.T {
			e.alive[act.Victim] = false
			e.crashes++
			e.compactPending()
			if len(e.pending) == 0 {
				continue
			}
		}
		idx := -1
		if chosenSeq >= 0 {
			idx = findSeq(e.pending, chosenSeq)
		}
		if idx < 0 {
			// The chosen message died with the crash (or the index was
			// invalid): deterministic re-pick — consult the scheduler
			// again on the post-crash state instead of silently clamping
			// to index 0. Only the Deliver choice is honoured (one crash
			// per step); an invalid second pick falls back to index 0.
			re := sched.Next(e.view())
			idx = re.Deliver
			if idx < 0 || idx >= len(e.pending) {
				idx = 0
			}
		}
		m := e.pending[idx]
		e.pending = append(e.pending[:idx], e.pending[idx+1:]...)
		e.steps++
		if d, ok := sched.(DeliveryObserver); ok {
			d.Delivered(m)
		}
		if to := e.procs[m.To]; e.alive[m.To] && !to.Halted() {
			e.enqueue(m.To, to.Deliver(m.From, m.Payload))
			if to.Halted() {
				e.compactPending()
			}
		}
	}
	return e.result(), nil
}

// compactPending drops messages to or from crashed processes and to
// halted ones (they would be ignored anyway), keeping the scheduler's
// choice set meaningful.
func (e *Execution) compactPending() {
	out := e.pending[:0]
	for _, m := range e.pending {
		if !e.alive[m.From] || !e.alive[m.To] || e.procs[m.To].Halted() {
			continue
		}
		out = append(out, m)
	}
	e.pending = out
}

// Steps returns the number of deliveries so far.
func (e *Execution) Steps() int { return e.steps }

func (e *Execution) result() *Result {
	n := e.cfg.N
	res := &Result{
		Steps:     e.steps,
		Crashes:   e.crashes,
		Decisions: make([]int, n),
		Decided:   make([]bool, n),
		Inputs:    append([]int(nil), e.inputs...),
	}
	for i := range res.Decisions {
		res.Decisions[i] = -1
	}
	common := -1
	agreement := true
	for i, p := range e.procs {
		if !e.alive[i] {
			continue
		}
		res.Survivors++
		v, ok := p.Decided()
		if !ok {
			agreement = false
			continue
		}
		res.Decided[i] = true
		res.Decisions[i] = v
		if common == -1 {
			common = v
		} else if common != v {
			agreement = false
		}
	}
	res.Agreement = agreement
	res.Validity = true
	allSame := true
	for _, x := range e.inputs[1:] {
		if x != e.inputs[0] {
			allSame = false
		}
	}
	if allSame {
		for i := range e.procs {
			if res.Decided[i] && res.Decisions[i] != e.inputs[0] {
				res.Validity = false
			}
		}
	}
	return res
}
