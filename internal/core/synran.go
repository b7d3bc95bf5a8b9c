package core

import (
	"fmt"

	"synran/internal/rng"
	"synran/internal/sim"
	"synran/internal/wire"
)

// Options tunes the SynRan implementation. The zero value is the
// protocol exactly as published.
type Options struct {
	// SymmetricCoin disables the paper's one-side-bias rule
	// (the "ELSE IF Z_i^r = 0 THEN b_i = 1" line). This turns SynRan into
	// the symmetric-coin Ben-Or style baseline the paper starts from. The
	// resulting protocol is only a correct consensus protocol when the
	// adversary cannot crash a large fraction of processes between rounds;
	// experiment E5 demonstrates the validity violation that motivates the
	// one-side bias.
	SymmetricCoin bool

	// FloodRounds overrides the deterministic stage length (0 means the
	// default FloodRounds(n) from bounds.go).
	FloodRounds int

	// SharedCoinSeed, when non-zero, replaces the private fair coin with
	// a Rabin-style common coin: every process derives the same
	// unpredictable-but-public bit for round r from the seed. This is
	// exactly the extra assumption the paper's introduction credits for
	// O(1) expected-round protocols ([Rab83], [FM97]): the adversary,
	// although it sees the coin as soon as it is used, can no longer
	// split the undecided processes — they all adopt the same bit — so
	// the coin-trap that powers the lower bound disappears (experiment
	// E13). Outside the paper's model by design.
	SharedCoinSeed uint64

	// LeaderCoin replaces the private fair coin in the undecided branch
	// with the bit of the lowest-id sender heard this round — a
	// coordinator-style shared coin in the spirit of the O(1) protocols
	// for weaker adversaries the paper cites ([CC85], [CMS89]). Against a
	// NON-adaptive adversary all undecided processes adopt the same bit
	// and the protocol converges in O(1) expected rounds for any t;
	// against an adaptive adversary, killing the leader mid-broadcast
	// each round (adversary.LeaderKiller) splits the views for one crash
	// per round, degrading it to Θ(t) rounds — the adaptivity gap of
	// experiment E11.
	LeaderCoin bool
}

// stage is the phase of a SynRan process's lifecycle.
type stage int

const (
	// stageProb is the probabilistic voting stage (the main loop).
	stageProb stage = iota + 1
	// stageWarmup is the single plain-broadcast round after the
	// deterministic trigger fires ("send b_i to all processes; receive
	// all messages sent to P_i in round r+1") — the one-round delay that
	// freezes b_i and lets laggards be heard.
	stageWarmup
	// stageFlood is the deterministic FloodSet stage.
	stageFlood
	// stageDone means the process has decided and halted.
	stageDone
)

// Proc is one SynRan process. It implements sim.Process.
//
// The implementation follows the Section 4 pseudocode line by line; the
// comments quote the pseudocode's conditions. Two points the paper
// leaves implicit are resolved here and discussed in DESIGN.md:
// the deterministic protocol is FloodSet with decision rule
// "singleton {v} → v, otherwise 0", and counts include the process's own
// current value ("including b_i").
type Proc struct {
	id   int
	n    int
	rng  rng.Stream
	opts Options

	b  int // current choice for the consensus value
	st stage
	// nHist[r-1] = N_i^r, the messages received in round r; rounds <= 0
	// read as n (the pseudocode's N^{-1} = N^0 = n initialization). It
	// is allocated at the first probabilistic round, which a process the
	// columnar core runs never reaches.
	nHist      []int
	q          float64
	flip       func() int // nil = fair coin from rng; tests may script it
	floodMask  int64
	floodLeft  int
	decision   int
	decided    bool // the pseudocode's `decided` flag (revocable!)
	hasDecided bool // irrevocable: set when the process halts with a value
}

var _ sim.Process = (*Proc)(nil)

// NewProc builds one SynRan process with the given input bit, holding
// a copy of stream as its private coin.
func NewProc(id, n, input int, stream *rng.Stream, opts Options) (*Proc, error) {
	tmpl := template(n, opts)
	p := new(Proc)
	if err := p.init(&tmpl, id, input); err != nil {
		return nil, err
	}
	p.rng = *stream
	return p, nil
}

// NewProcs builds the full process vector for an execution as one
// block of Procs, splitting each process's rng stream from seed in
// place, so the vector costs a constant number of allocations, not
// three per process. NewKernel builds the same vector in columnar
// form; both start every process from the same vector template.
func NewProcs(n int, inputs []int, seed uint64, opts Options) ([]sim.Process, error) {
	v, err := newVector(n, inputs, seed, opts)
	if err != nil {
		return nil, err
	}
	block := make([]Proc, n)
	procs := make([]sim.Process, n)
	for i := range block {
		p := &block[i]
		if err := p.init(&v.tmpl, i, inputs[i]); err != nil {
			return nil, err
		}
		v.root.SplitInto(&p.rng, uint64(i))
		procs[i] = p
	}
	return procs, nil
}

// vector is what every process of an n-process vector starts from:
// the template state, and the root stream its coin is split from under
// its id.
type vector struct {
	tmpl Proc
	root rng.Stream
}

// newVector checks the vector's shape and prepares its template and
// root stream.
func newVector(n int, inputs []int, seed uint64, opts Options) (vector, error) {
	if len(inputs) != n {
		return vector{}, fmt.Errorf("core: %d inputs for n=%d", len(inputs), n)
	}
	v := vector{tmpl: template(n, opts)}
	v.root.Reseed(seed)
	return v, nil
}

// template is the state every process of an n-process vector starts
// from, so the threshold and the flood-stage length are computed once
// per vector.
func template(n int, opts Options) Proc {
	fl := opts.FloodRounds
	if fl <= 0 {
		fl = FloodRounds(n)
	}
	return Proc{n: n, opts: opts, st: stageProb, q: DetThreshold(n), floodLeft: fl}
}

// init validates id and input and starts p from tmpl as process id,
// leaving its coin stream zero.
func (p *Proc) init(tmpl *Proc, id, input int) error {
	if input != 0 && input != 1 {
		return fmt.Errorf("core: input %d for process %d, want 0 or 1", input, id)
	}
	if tmpl.n <= 0 || id < 0 || id >= tmpl.n {
		return fmt.Errorf("core: process id %d out of range for n=%d", id, tmpl.n)
	}
	*p = *tmpl
	p.id, p.b = id, input
	return nil
}

// B returns the process's current choice for the consensus value.
func (p *Proc) B() int { return p.b }

// Stage returns which stage of the protocol the process is in
// (exported for the full-information adversary and for tests).
func (p *Proc) Stage() int { return int(p.st) }

// TentativelyDecided reports the pseudocode's revocable `decided` flag.
func (p *Proc) TentativelyDecided() bool { return p.decided }

// Decided implements sim.Process: the irrevocable decision, available
// once the process halts.
func (p *Proc) Decided() (int, bool) { return p.decision, p.hasDecided }

// Stopped implements sim.Process.
func (p *Proc) Stopped() bool { return p.st == stageDone }

// Reseed implements sim.Reseeder: it replaces the process's future coin
// flips with a fresh stream so cloned executions can sample independent
// futures during Monte-Carlo valency estimation.
func (p *Proc) Reseed(seed uint64) {
	p.rng.Reseed(seed)
}

// SetFlip replaces the process's private fair coin with f. This is the
// deterministic-coin injection hook used by the bounded model checker
// and by the exact valency computation (internal/valency.ExactClassify):
// enumerating every output of f explores every coin path of the
// protocol. Pass nil to restore the rng coin.
func (p *Proc) SetFlip(f func() int) { p.flip = f }

// Clone implements sim.Process.
func (p *Proc) Clone() sim.Process {
	c := *p
	c.nHist = append([]int(nil), p.nHist...)
	return &c
}

// CopyFrom implements sim.ProcessCopier: overwrite this process with a
// deep copy of src, reusing the receiver's history storage so
// arena-backed snapshots (sim.CloneInto) allocate nothing per process.
func (p *Proc) CopyFrom(src sim.Process) bool {
	s, ok := src.(*Proc)
	if !ok {
		return false
	}
	hist := p.nHist
	*p = *s
	p.nHist = append(hist[:0], s.nHist...)
	return true
}

var _ sim.ProcessCopier = (*Proc)(nil)

// histN returns N_i^r with the pseudocode's convention N^r = n for r <= 0.
func (p *Proc) histN(r int) int {
	if r <= 0 {
		return p.n
	}
	if r > len(p.nHist) {
		// Rounds the process has not witnessed (unreachable by construction).
		return p.n
	}
	return p.nHist[r-1]
}

// Round implements sim.Process. Callback r consumes the messages of
// exchange round r−1 and returns the payload for exchange round r.
func (p *Proc) Round(r int, inbox []sim.Recv) (int64, bool) {
	if p.st == stageDone {
		return 0, false
	}
	if r == 1 {
		// First loop iteration: nothing received yet, send the input.
		return wire.Plain(p.b), true
	}

	switch p.st {
	case stageProb:
		return p.probRound(r-1, inbox)
	case stageWarmup:
		// inbox holds the plain values of the handover round; seed the
		// flood set with them plus our own frozen b, then start flooding.
		p.floodMask = wire.ValueMask(p.b)
		p.absorb(inbox)
		p.st = stageFlood
		return wire.Flood(p.floodMask), true
	case stageFlood:
		p.absorb(inbox)
		p.floodLeft--
		if p.floodLeft <= 0 {
			p.finishFlood()
			return 0, false
		}
		return wire.Flood(p.floodMask), true
	default:
		return 0, false
	}
}

// probRound executes one iteration of the pseudocode's main loop for
// exchange round rr (whose messages are in inbox).
func (p *Proc) probRound(rr int, inbox []sim.Recv) (int64, bool) {
	// compute O_i^r, Z_i^r, N_i^r (including b_i).
	ones, zeros := countValues(inbox)
	if p.b == 1 {
		ones++
	} else {
		zeros++
	}
	n := len(inbox) + 1
	if p.nHist == nil {
		p.nHist = make([]int, 0, 16)
	}
	p.nHist = append(p.nHist, n)
	if len(p.nHist) != rr {
		// Defensive: history must stay aligned with round numbers.
		panic(fmt.Sprintf("core: history misaligned: %d entries at round %d", len(p.nHist), rr))
	}

	// IF (N_i^r < sqrt(n/log n)): switch to the deterministic protocol.
	// The pseudocode performs this check before the stop check.
	if float64(n) < p.q {
		p.st = stageWarmup
		return wire.Plain(p.b), true // "send b_i to all processes"
	}

	// IF (decided = TRUE): diff = N^{r-3} − N^r; stop if diff ≤ N^{r-2}/10.
	if p.decided {
		diff := p.histN(rr-3) - n
		if 10*diff <= p.histN(rr-2) {
			p.halt(p.b)
			return 0, false // STOP: no further messages
		}
		p.decided = false
	}

	// Threshold cascade against N' = N_i^{r-1}.
	nPrev := p.histN(rr - 1)
	switch {
	case 10*ones > 7*nPrev:
		p.b = 1
		p.decided = true
	case 10*ones > 6*nPrev:
		p.b = 1
	case !p.opts.SymmetricCoin && zeros == 0:
		// The one-side-bias rule: ELSE IF Z_i^r = 0 THEN b_i = 1.
		p.b = 1
	case 10*ones < 4*nPrev:
		p.b = 0
		p.decided = true
	case 10*ones < 5*nPrev:
		p.b = 0
	default:
		switch {
		case p.opts.SharedCoinSeed != 0:
			p.b = sharedCoin(p.opts.SharedCoinSeed, rr)
		case p.opts.LeaderCoin:
			p.b = leaderBit(inbox, p.b)
		case p.flip != nil:
			p.b = p.flip() & 1
		default:
			p.b = p.rng.Bit()
		}
	}
	return wire.Plain(p.b), true
}

// sharedCoin derives the public common coin for a round from the dealer
// seed. Every process computes the same bit.
func sharedCoin(seed uint64, round int) int {
	return int(rng.Uint64At(seed^uint64(round)*0x9e3779b97f4a7c15) & 1)
}

// leaderBit returns the bit of the lowest-id plain-payload sender in the
// inbox, or own as the fallback when no plain message arrived.
func leaderBit(inbox []sim.Recv, own int) int {
	leader, bit := -1, own
	for _, m := range inbox {
		if wire.IsFlood(m.Payload) {
			continue
		}
		if leader == -1 || m.From < leader {
			leader = m.From
			bit = wire.Bit(m.Payload)
		}
	}
	return bit
}

// absorb unions every value witnessed in inbox into the flood mask.
// Plain messages contribute their bit; flood messages their whole set.
func (p *Proc) absorb(inbox []sim.Recv) {
	for _, m := range inbox {
		if wire.IsFlood(m.Payload) {
			p.floodMask |= wire.Mask(m.Payload)
		} else {
			p.floodMask |= wire.ValueMask(wire.Bit(m.Payload))
		}
	}
}

// finishFlood applies the deterministic stage's decision rule: a
// singleton witnessed set {v} decides v; a mixed set decides 0. Lemmas
// 4.2/4.3 guarantee the set is the singleton {v} whenever some process
// already decided v in the probabilistic stage, so this default never
// contradicts an earlier decision.
func (p *Proc) finishFlood() {
	switch p.floodMask {
	case wire.MaskOne:
		p.halt(1)
	default:
		p.halt(0)
	}
}

func (p *Proc) halt(v int) {
	p.decision = v
	p.hasDecided = true
	p.st = stageDone
}

// countValues tallies ones and zeros in an inbox, interpreting stray
// deterministic-stage messages (possible for one handover round) by
// their witnessed set: singleton sets count as their value, a mixed set
// counts as a zero (the conservative default, matching finishFlood).
func countValues(inbox []sim.Recv) (ones, zeros int) {
	for _, m := range inbox {
		if wire.IsFlood(m.Payload) {
			if wire.Mask(m.Payload) == wire.MaskOne {
				ones++
			} else {
				zeros++
			}
			continue
		}
		if wire.Bit(m.Payload) == 1 {
			ones++
		} else {
			zeros++
		}
	}
	return ones, zeros
}
