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
type stage int8

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

// state is one SynRan process's protocol state, held by value: a Proc
// wraps one, and the columnar kernel holds one per process. round is
// its only transition, so both engine cores run one copy of the
// protocol.
//
// The implementation follows the Section 4 pseudocode line by line; the
// comments quote the pseudocode's conditions. Two points the paper
// leaves implicit are resolved here and discussed in DESIGN.md:
// the deterministic protocol is FloodSet with decision rule
// "singleton {v} → v, otherwise 0", and counts include the process's own
// current value ("including b_i").
type state struct {
	// b is the current choice for the consensus value; once the process
	// halts (st == stageDone), it is the irrevocable decision.
	b         int8
	st        stage
	decided   bool // the pseudocode's `decided` flag (revocable!)
	floodMask int8
	floodLeft int32
	// histLen counts the probabilistic rounds witnessed. h holds
	// N_i^{r-1}, N_i^{r-2}, N_i^{r-3} for the next one, rounds <= 0
	// reading n (the pseudocode's N^{-1} = N^0 = n initialization): the
	// protocol never looks further back.
	histLen int32
	h       [3]int32
}

// tally is what a round reads of the messages delivered to one process
// in the previous exchange round: how many count as ones and as zeros,
// how many arrived, and the set of values they witness (wire.MaskZero
// | wire.MaskOne bits).
type tally struct {
	ones, zeros, count int
	mask               int64
}

// readsMask reports whether s's next round reads the witnessed set of
// its tally. Only the deterministic stage does, so the columnar kernel
// reads the mask columns for no voting process.
func (s *state) readsMask() bool { return s.st == stageWarmup || s.st == stageFlood }

// classifyPayload gives one payload's contribution to the round tally:
// one is its vote (a stray deterministic-stage message, possible for
// one handover round, votes 1 only for the singleton set {1}: a mixed
// set counts as a zero, the conservative default matching the flood
// decision), mz/mo the witnessed-value-set bits it carries.
func classifyPayload(p int64) (one, mz, mo bool) {
	if wire.IsFlood(p) {
		m := wire.Mask(p)
		return m == wire.MaskOne, m&wire.MaskZero != 0, m&wire.MaskOne != 0
	}
	b := wire.Bit(p)
	return b == 1, b == 0, b == 1
}

// add counts c messages carrying payload p.
func (t *tally) add(p int64, c int) {
	one, mz, mo := classifyPayload(p)
	if one {
		t.ones += c
	} else {
		t.zeros += c
	}
	if mz {
		t.mask |= wire.MaskZero
	}
	if mo {
		t.mask |= wire.MaskOne
	}
}

// tallyOf folds an inbox into its tally. Every legal payload is below
// 8, so it counts messages per payload value and classifies each value
// once.
func tallyOf(inbox []sim.Recv) tally {
	var perValue [8]int
	t := tally{count: len(inbox)}
	for _, m := range inbox {
		if uint64(m.Payload) < uint64(len(perValue)) {
			perValue[m.Payload]++
		} else {
			t.add(m.Payload, 1)
		}
	}
	for v, c := range perValue {
		if c > 0 {
			t.add(int64(v), c)
		}
	}
	return t
}

// round is callback r of one process: it consumes t, the tally of
// exchange round r−1 (unread when r == 1), and returns the payload for
// exchange round r and whether it is sent. q is the deterministic-stage
// trigger sqrt(n/log n). A process that reaches the private-coin
// branch returns coin = true and no payload: the caller draws the bit
// and completes the round with adopt.
func (s *state) round(r int, t tally, q float64, opts *Options) (payload int64, send, coin bool) {
	if s.done() {
		return 0, false, false
	}
	if r == 1 {
		// First loop iteration: nothing received yet, send the input.
		return wire.Plain(int(s.b)), true, false
	}
	switch s.st {
	case stageProb:
		return s.probRound(r-1, t, q, opts)
	case stageWarmup:
		// t holds the plain values of the handover round; seed the flood
		// set with them plus our own frozen b, then start flooding.
		s.floodMask = int8(wire.ValueMask(int(s.b)) | t.mask)
		s.st = stageFlood
		return wire.Flood(int64(s.floodMask)), true, false
	case stageFlood:
		s.floodMask |= int8(t.mask)
		s.floodLeft--
		if s.floodLeft <= 0 {
			// A singleton witnessed set {v} decides v; a mixed set decides
			// 0. Lemmas 4.2/4.3 guarantee the set is the singleton {v}
			// whenever some process already decided v in the
			// probabilistic stage, so this default never contradicts an
			// earlier decision.
			v := 0
			if int64(s.floodMask) == wire.MaskOne {
				v = 1
			}
			s.halt(v)
			return 0, false, false
		}
		return wire.Flood(int64(s.floodMask)), true, false
	}
	return 0, false, false
}

// probRound executes one iteration of the pseudocode's main loop for
// exchange round rr, whose messages t tallies.
func (s *state) probRound(rr int, t tally, q float64, opts *Options) (int64, bool, bool) {
	// compute O_i^r, Z_i^r, N_i^r (including b_i).
	ones, zeros := t.ones, t.zeros
	if s.b == 1 {
		ones++
	} else {
		zeros++
	}
	n := t.count + 1
	prev := s.h // N^{rr-1}, N^{rr-2}, N^{rr-3}
	s.h = [3]int32{int32(n), prev[0], prev[1]}
	s.histLen++
	if int(s.histLen) != rr {
		// Defensive: history must stay aligned with round numbers.
		panic(fmt.Sprintf("core: history misaligned: %d entries at round %d", s.histLen, rr))
	}

	// IF (N_i^r < sqrt(n/log n)): switch to the deterministic protocol.
	// The pseudocode performs this check before the stop check.
	if float64(n) < q {
		s.st = stageWarmup
		return wire.Plain(int(s.b)), true, false // "send b_i to all processes"
	}

	// IF (decided = TRUE): diff = N^{r-3} − N^r; stop if diff ≤ N^{r-2}/10.
	if s.decided {
		diff := int(prev[2]) - n
		if 10*diff <= int(prev[1]) {
			s.halt(int(s.b))
			return 0, false, false // STOP: no further messages
		}
		s.decided = false
	}

	// Threshold cascade against N' = N_i^{r-1}.
	nPrev := int(prev[0])
	switch {
	case 10*ones > 7*nPrev:
		s.b, s.decided = 1, true
	case 10*ones > 6*nPrev:
		s.b = 1
	case !opts.SymmetricCoin && zeros == 0:
		// The one-side-bias rule: ELSE IF Z_i^r = 0 THEN b_i = 1.
		s.b = 1
	case 10*ones < 4*nPrev:
		s.b, s.decided = 0, true
	case 10*ones < 5*nPrev:
		s.b = 0
	case opts.SharedCoinSeed != 0:
		s.b = int8(sharedCoin(opts.SharedCoinSeed, rr))
	default:
		return 0, true, true // the private coin, drawn by the caller
	}
	return wire.Plain(int(s.b)), true, false
}

// adopt completes a round that reached the private-coin branch: the
// process takes bit as b and broadcasts it.
func (s *state) adopt(bit int) int64 {
	s.b = int8(bit & 1)
	return wire.Plain(bit)
}

func (s *state) halt(v int) {
	s.b = int8(v)
	s.st = stageDone
}

// done reports whether the process has halted, which is when it
// decides.
func (s *state) done() bool { return s.st == stageDone }

// sharedCoin derives the public common coin for a round from the dealer
// seed. Every process computes the same bit.
func sharedCoin(seed uint64, round int) int {
	return int(rng.Uint64At(seed^uint64(round)*0x9e3779b97f4a7c15) & 1)
}

// Proc is one SynRan process: its protocol state and its private coin.
// It implements sim.Process.
type Proc struct {
	id   int
	s    state
	rng  rng.Stream
	opts Options
	q    float64    // the deterministic-stage trigger sqrt(n/log n)
	flip func() int // nil = fair coin from rng; tests may script it
}

var _ sim.Process = (*Proc)(nil)

// NewProc builds one SynRan process with the given input bit, holding
// a copy of stream as its private coin.
func NewProc(id, n, input int, stream *rng.Stream, opts Options) (*Proc, error) {
	tmpl := template(n, opts)
	p := new(Proc)
	if err := p.init(&tmpl, n, id, input); err != nil {
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
		if err := p.init(&v.tmpl, n, i, inputs[i]); err != nil {
			return nil, err
		}
		v.root.SplitInto(&p.rng, uint64(i))
		procs[i] = p
	}
	return procs, nil
}

// vector is what every process of an n-process vector starts from:
// the template process, and the root stream its coin is split from
// under its id.
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

// template is the process every process of an n-process vector starts
// from, so the threshold and the flood-stage length are computed once
// per vector.
func template(n int, opts Options) Proc {
	fl := opts.FloodRounds
	if fl <= 0 {
		fl = FloodRounds(n)
	}
	h := int32(n)
	return Proc{opts: opts, q: DetThreshold(n),
		s: state{st: stageProb, floodLeft: int32(fl), h: [3]int32{h, h, h}}}
}

// init validates id and input and starts p from tmpl as process id of
// n, leaving its coin stream zero.
func (p *Proc) init(tmpl *Proc, n, id, input int) error {
	if input != 0 && input != 1 {
		return fmt.Errorf("core: input %d for process %d, want 0 or 1", input, id)
	}
	if n <= 0 || id < 0 || id >= n {
		return fmt.Errorf("core: process id %d out of range for n=%d", id, n)
	}
	*p = *tmpl
	p.id, p.s.b = id, int8(input)
	return nil
}

// B returns the process's current choice for the consensus value.
func (p *Proc) B() int { return int(p.s.b) }

// Stage returns which stage of the protocol the process is in
// (exported for the full-information adversary and for tests).
func (p *Proc) Stage() int { return int(p.s.st) }

// TentativelyDecided reports the pseudocode's revocable `decided` flag.
func (p *Proc) TentativelyDecided() bool { return p.s.decided }

// Decided implements sim.Process: the irrevocable decision, available
// once the process halts.
func (p *Proc) Decided() (int, bool) { return int(p.s.b), p.s.done() }

// Stopped implements sim.Process.
func (p *Proc) Stopped() bool { return p.s.done() }

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
	return &c
}

// CopyFrom implements sim.ProcessCopier: overwrite this process with a
// copy of src, so arena-backed snapshots (sim.CloneInto) allocate
// nothing per process.
func (p *Proc) CopyFrom(src sim.Process) bool {
	s, ok := src.(*Proc)
	if ok {
		*p = *s
	}
	return ok
}

var _ sim.ProcessCopier = (*Proc)(nil)

// Round implements sim.Process. Callback r consumes the messages of
// exchange round r−1 and returns the payload for exchange round r.
func (p *Proc) Round(r int, inbox []sim.Recv) (int64, bool) {
	payload, send, coin := p.s.round(r, tallyOf(inbox), p.q, &p.opts)
	if coin {
		payload = p.s.adopt(p.coin(inbox))
	}
	return payload, send
}

// coin draws the bit of a round that reached the private-coin branch:
// the lowest-id sender's bit under LeaderCoin, else the scripted flip,
// else the process's rng.
func (p *Proc) coin(inbox []sim.Recv) int {
	switch {
	case p.opts.LeaderCoin:
		return leaderBit(inbox, int(p.s.b))
	case p.flip != nil:
		return p.flip()
	default:
		return p.rng.Bit()
	}
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
