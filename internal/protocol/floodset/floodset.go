// Package floodset implements the classic deterministic FloodSet
// consensus protocol for the synchronous fail-stop model (see e.g.
// Lynch, "Distributed Algorithms", ch. 6). It tolerates any number of
// crashes and always terminates in rounds+1 callbacks, where rounds must
// exceed the number of crashes that actually occur; with rounds = t+1 it
// is the deterministic t+1-round baseline the paper compares against
// ("for larger t the best known randomized solution is the deterministic
// t+1-round protocol!").
package floodset

import (
	"fmt"

	"synran/internal/sim"
	"synran/internal/wire"
)

// state is one FloodSet process's protocol state, held by value: a
// Proc wraps one, and the columnar kernel holds one per process.
type state struct {
	mask     int8 // the witnessed value set (wire.MaskZero | wire.MaskOne bits)
	decision int8
	done     bool
	sent     int32
}

// round is one FloodSet callback, the protocol's only transition: it
// unions witnessed, the value set of the messages delivered in the
// previous exchange round, into the process's set and floods the set
// for rounds exchange rounds. Then it decides by the standard FloodSet
// rule: a singleton witnessed set decides its value; a mixed set
// decides the default 0.
func (s *state) round(witnessed int64, rounds int) (int64, bool) {
	if s.done {
		return 0, false
	}
	s.mask |= int8(witnessed & wire.MaskBoth)
	if int(s.sent) >= rounds {
		s.done = true
		if int64(s.mask) == wire.MaskOne {
			s.decision = 1
		}
		return 0, false
	}
	s.sent++
	return wire.Flood(int64(s.mask)), true
}

// Proc is one FloodSet process. It implements sim.Process.
type Proc struct {
	id     int
	rounds int // exchange rounds to perform (t+1 for a t-adversary)
	s      state
}

var _ sim.Process = (*Proc)(nil)

// NewProc builds a FloodSet process that floods for rounds exchange
// rounds. For a t-resilient instance pass rounds = t+1.
func NewProc(id, input, rounds int) (*Proc, error) {
	p := new(Proc)
	if err := p.init(id, input, rounds); err != nil {
		return nil, err
	}
	return p, nil
}

// init validates input and rounds and starts p as process id.
func (p *Proc) init(id, input, rounds int) error {
	if input != 0 && input != 1 {
		return fmt.Errorf("floodset: input %d, want 0 or 1", input)
	}
	if rounds < 1 {
		return fmt.Errorf("floodset: rounds = %d, want >= 1", rounds)
	}
	*p = Proc{id: id, rounds: rounds, s: state{mask: int8(wire.ValueMask(input))}}
	return nil
}

// NewProcs builds the full process vector for an execution with crash
// budget t (flooding for t+1 rounds).
func NewProcs(n, t int, inputs []int) ([]sim.Process, error) {
	return newVector(n, t+1, inputs)
}

// NewProcsTolerant builds a process vector that additionally rides out
// up to extra adaptive-omission demotions: a send-omission-faulty
// process is indistinguishable from a crash to every receiver, so the
// classic "more rounds than faults" argument applies to the combined
// ledger and flooding for t+extra+1 rounds restores the guaranteed
// crash-free round. This is the omission-tolerant baseline ("omitflood"
// in the façade, run with extra = t for 2t+1 rounds): slower than
// FloodSet by exactly the fault budget, but correct against
// omission-split and omission-random at budget <= extra.
func NewProcsTolerant(n, t, extra int, inputs []int) ([]sim.Process, error) {
	if err := checkExtra(extra); err != nil {
		return nil, err
	}
	return newVector(n, t+extra+1, inputs)
}

func checkExtra(extra int) error {
	if extra < 0 {
		return fmt.Errorf("floodset: extra = %d, want >= 0", extra)
	}
	return nil
}

// newVector builds n processes flooding for rounds rounds as one block
// of Procs, so the vector costs a constant number of allocations, not
// one per process. newKernel builds the same vector in columnar form;
// both start every process through init.
func newVector(n, rounds int, inputs []int) ([]sim.Process, error) {
	if err := checkLen(n, inputs); err != nil {
		return nil, err
	}
	block := make([]Proc, n)
	procs := make([]sim.Process, n)
	for i := range block {
		if err := block[i].init(i, inputs[i], rounds); err != nil {
			return nil, err
		}
		procs[i] = &block[i]
	}
	return procs, nil
}

func checkLen(n int, inputs []int) error {
	if len(inputs) != n {
		return fmt.Errorf("floodset: %d inputs for n=%d", len(inputs), n)
	}
	return nil
}

// Round implements sim.Process: every payload's MaskBoth bits join
// the witnessed set, whatever its tag.
func (p *Proc) Round(_ int, inbox []sim.Recv) (int64, bool) {
	var witnessed int64
	for _, m := range inbox {
		witnessed |= m.Payload
	}
	return p.s.round(witnessed, p.rounds)
}

// Decided implements sim.Process.
func (p *Proc) Decided() (int, bool) { return int(p.s.decision), p.s.done }

// Stopped implements sim.Process.
func (p *Proc) Stopped() bool { return p.s.done }

// Clone implements sim.Process.
func (p *Proc) Clone() sim.Process {
	c := *p
	return &c
}
