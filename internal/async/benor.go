package async

import (
	"fmt"

	"synran/internal/rng"
)

// Asynchronous Ben-Or ([BO83]), crash-fault version for t < n/2 — the
// protocol family the paper's Section 1.2 situates its synchronous
// results against. Each phase has a report wave and a propose wave:
//
//	REPORT(p, v)  — broadcast the current value.
//	                On n−t reports: PROPOSE(p, w) if some w holds an
//	                absolute majority (> n/2) of the reports, else
//	                PROPOSE(p, ⊥).
//	PROPOSE(p, x) — on n−t proposals: decide w on ≥ t+1 PROPOSE(p, w);
//	                adopt w on ≥ 1 PROPOSE(p, w); otherwise flip the coin.
//
// Deciders gossip DECIDE(w) and halt; the first DECIDE a process
// receives is re-broadcast before it decides too (crash-reliable
// flooding). The safety argument is the textbook one: absolute
// majorities intersect, so conflicting proposals cannot coexist, and
// t+1 proposals of w force every n−t quorum to contain one.
//
// Coin counts the paper's Section 1.2 connection to Aspnes' asynchronous
// lower bound: Flips() reports the total local coin flips, the quantity
// Aspnes bounds by Ω(t²/log² t).

// Message type tags.
const (
	typeReport  = 1
	typePropose = 2
	typeDecide  = 3
)

// Proposal value encoding: 0, 1, or bottom.
const valBottom = 2

// Pack encodes an async Ben-Or message payload (exported for the
// schedulers, which inspect messages in flight).
func Pack(typ, phase, val int) int64 {
	return int64(typ) | int64(val)<<2 | int64(phase)<<4
}

// Unpack decodes a payload.
func Unpack(p int64) (typ, phase, val int) {
	return int(p & 3), int(p >> 4), int((p >> 2) & 3)
}

// ReportValue reports whether p encodes a REPORT message carrying a
// binary value, and returns that value. The conformance harness uses it
// to count report deliveries independently of the Splitter's internal
// tally when cross-checking the two.
func ReportValue(p int64) (int, bool) {
	typ, _, val := Unpack(p)
	if typ == typeReport && (val == 0 || val == 1) {
		return val, true
	}
	return 0, false
}

// CoinMode selects the Ben-Or coin.
type CoinMode int

// Coin modes.
const (
	// CoinRandom is the protocol as published: a private fair coin.
	CoinRandom CoinMode = iota + 1
	// CoinParity is the FLP derandomization: the "coin" is the process
	// id's parity — a deterministic protocol, so a scheduler that keeps
	// the report quorums balanced loops it forever (experiment E15).
	CoinParity
)

// BenOr is one asynchronous Ben-Or process. It implements Process.
type BenOr struct {
	id, n, t int
	mode     CoinMode
	rng      *rng.Stream

	v     int
	phase int
	stage int // 1 = collecting reports, 2 = collecting proposals

	// Per-phase tallies, indexed by phase number: the counts of reported
	// 0/1 and of proposed 0/1/bottom, including buffered future phases.
	reports   [][2]int
	proposals [][3]int

	flips   int
	decided bool
	halted  bool
	dec     int

	out []Send // sends accumulated during the current Deliver
}

var _ Process = (*BenOr)(nil)

// NewBenOr builds one asynchronous Ben-Or process.
func NewBenOr(id, n, t, input int, mode CoinMode, stream *rng.Stream) (*BenOr, error) {
	if input != 0 && input != 1 {
		return nil, fmt.Errorf("async: input %d, want 0 or 1", input)
	}
	if 2*t >= n {
		return nil, fmt.Errorf("async: benor needs t < n/2 (n=%d t=%d)", n, t)
	}
	if mode == 0 {
		mode = CoinRandom
	}
	return &BenOr{
		id: id, n: n, t: t, mode: mode, rng: stream,
		v: input, phase: 1, stage: 1,
	}, nil
}

// NewBenOrProcs builds the full process vector.
func NewBenOrProcs(n, t int, inputs []int, mode CoinMode, seed uint64) ([]Process, error) {
	if len(inputs) != n {
		return nil, fmt.Errorf("async: %d inputs for n=%d", len(inputs), n)
	}
	root := rng.New(seed)
	procs := make([]Process, n)
	for i := range procs {
		p, err := NewBenOr(i, n, t, inputs[i], mode, root.Split(uint64(i)))
		if err != nil {
			return nil, err
		}
		procs[i] = p
	}
	return procs, nil
}

// Flips returns the number of local coin flips performed (the Aspnes
// metric).
func (b *BenOr) Flips() int { return b.flips }

// Phase returns the current phase (1-based).
func (b *BenOr) Phase() int { return b.phase }

// Value returns the current estimate.
func (b *BenOr) Value() int { return b.v }

// Init implements Process: broadcast the first report and count our own.
func (b *BenOr) Init() []Send {
	b.out = nil
	b.countReport(b.phase, b.v)
	b.send(Pack(typeReport, b.phase, b.v))
	b.advance()
	return b.takeOut()
}

// Deliver implements Process.
func (b *BenOr) Deliver(_ int, payload int64) []Send {
	if b.halted {
		return nil
	}
	b.out = nil
	typ, phase, val := Unpack(payload)
	switch typ {
	case typeReport:
		if val == 0 || val == 1 {
			b.countReport(phase, val)
		}
	case typePropose:
		if val >= 0 && val <= valBottom {
			b.countProposal(phase, val)
		}
	case typeDecide:
		if val == 0 || val == 1 {
			b.send(Pack(typeDecide, phase, val))
			b.decide(val)
			return b.takeOut()
		}
	}
	b.advance()
	return b.takeOut()
}

// Decided implements Process.
func (b *BenOr) Decided() (int, bool) { return b.dec, b.decided }

// Halted implements Process.
func (b *BenOr) Halted() bool { return b.halted }

func (b *BenOr) send(payload int64) {
	b.out = append(b.out, Send{To: Broadcast, Payload: payload})
}

func (b *BenOr) takeOut() []Send {
	out := b.out
	b.out = nil
	return out
}

func (b *BenOr) countReport(phase, val int) {
	if phase >= len(b.reports) {
		b.reports = append(b.reports, make([][2]int, phase+1-len(b.reports))...)
	}
	b.reports[phase][val]++
}

func (b *BenOr) countProposal(phase, val int) {
	if phase >= len(b.proposals) {
		b.proposals = append(b.proposals, make([][3]int, phase+1-len(b.proposals))...)
	}
	b.proposals[phase][val]++
}

// advance runs the phase state machine as far as the buffered counts
// allow (buffered future-phase messages can satisfy a wave instantly).
// Entering a stage counts the process's own report or proposal, so the
// current phase's tally always exists.
func (b *BenOr) advance() {
	for !b.halted {
		switch b.stage {
		case 1: // waiting for n-t reports of the current phase
			c := b.reports[b.phase]
			if c[0]+c[1] < b.n-b.t {
				return
			}
			prop := valBottom
			if 2*c[0] > b.n {
				prop = 0
			} else if 2*c[1] > b.n {
				prop = 1
			}
			b.countProposal(b.phase, prop)
			b.send(Pack(typePropose, b.phase, prop))
			b.stage = 2
		case 2: // waiting for n-t proposals of the current phase
			c := b.proposals[b.phase]
			if c[0]+c[1]+c[2] < b.n-b.t {
				return
			}
			switch {
			case c[0] >= b.t+1:
				b.send(Pack(typeDecide, b.phase, 0))
				b.decide(0)
				return
			case c[1] >= b.t+1:
				b.send(Pack(typeDecide, b.phase, 1))
				b.decide(1)
				return
			case c[0] > 0:
				b.v = 0
			case c[1] > 0:
				b.v = 1
			default:
				b.v = b.coin()
			}
			b.phase++
			b.stage = 1
			b.countReport(b.phase, b.v)
			b.send(Pack(typeReport, b.phase, b.v))
		}
	}
}

func (b *BenOr) coin() int {
	if b.mode == CoinParity {
		return b.id % 2
	}
	b.flips++
	return b.rng.Bit()
}

func (b *BenOr) decide(v int) {
	b.dec = v
	b.decided = true
	b.halted = true
}
