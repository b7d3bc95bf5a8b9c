package core

import (
	"fmt"
	"testing"

	"synran/internal/sim"
	"synran/internal/wire"
)

// This file is a bounded model checker for SynRan. For small n it
// enumerates EVERY fair-coin outcome sequence (via a scripted coin and
// binary-counter enumeration) combined with every single-crash
// adversary choice (round × victim × delivery set), and judges each
// execution against a reference model of Section 4 written here from
// the pseudocode: its own message counting, the full N history, its own
// threshold cascade, stop test, trigger and FloodSet stage, sharing no
// round code with the protocol. Every round's broadcasts, every
// decision and the halt round must match the model's, and Agreement and
// Validity must hold. Paths on which the coins disagree forever are
// probability-zero; they hit the round cap and are counted, not failed
// (the paper's Termination is "with probability 1", not "always").

// coinScript deals scripted bits; flips beyond the script extend it
// with 0 so the consumed sequence is always recorded.
type coinScript struct {
	bits []int
	pos  int
	max  int
}

func (s *coinScript) next() int {
	if s.pos < len(s.bits) {
		b := s.bits[s.pos]
		s.pos++
		return b
	}
	if len(s.bits) < s.max {
		s.bits = append(s.bits, 0)
	}
	s.pos++
	return 0
}

// nextScript advances the consumed prefix like a binary counter;
// nil means the enumeration is complete.
func nextScript(bits []int) []int {
	i := len(bits) - 1
	for i >= 0 && bits[i] == 1 {
		i--
	}
	if i < 0 {
		return nil
	}
	out := append([]int(nil), bits[:i]...)
	return append(out, 1)
}

// crashChoice is one element of the adversary's single-crash action
// space: the victim crashes in round, and its round message reaches
// exactly the receivers in deliver.
type crashChoice struct {
	round, victim int
	deliver       []bool
}

// crashChoices enumerates no crash (nil) plus every (round, victim,
// subset of the other receivers) for rounds 1..maxRound.
func crashChoices(n, maxRound int) []*crashChoice {
	choices := []*crashChoice{nil}
	for r := 1; r <= maxRound; r++ {
		for v := 0; v < n; v++ {
			for m := 0; m < 1<<n; m++ {
				if m&(1<<v) != 0 {
					continue
				}
				deliver := make([]bool, n)
				for j := range deliver {
					deliver[j] = m&(1<<j) != 0
				}
				choices = append(choices, &crashChoice{round: r, victim: v, deliver: deliver})
			}
		}
	}
	return choices
}

// plan is the choice as the engine's crash plan for round r, if any.
func (c *crashChoice) plan(r int) []sim.CrashPlan {
	if c == nil || c.round != r {
		return nil
	}
	mask := sim.NewBitSet(len(c.deliver))
	for j, d := range c.deliver {
		if d {
			mask.Set(j)
		}
	}
	return []sim.CrashPlan{{Victim: c.victim, Deliver: mask}}
}

// refMsg is a message as the reference model sees it: a plain vote,
// or, in the deterministic stage, the set of values its sender has
// witnessed.
type refMsg struct {
	flood bool
	vote  int
	set   [2]bool // set[v]: value v witnessed
}

// payload encodes m on the wire, for comparison with the engine.
func (m refMsg) payload() int64 {
	if !m.flood {
		return wire.Plain(m.vote)
	}
	var mask int64
	if m.set[0] {
		mask |= wire.MaskZero
	}
	if m.set[1] {
		mask |= wire.MaskOne
	}
	return wire.Flood(mask)
}

// votesOne is how the main loop counts m: a stray deterministic-stage
// message counts as a one only when it witnessed 1 alone.
func (m refMsg) votesOne() bool {
	if m.flood {
		return m.set[1] && !m.set[0]
	}
	return m.vote == 1
}

// The stages of a reference process.
const (
	refVoting   = iota // the probabilistic main loop
	refWarmup          // the plain broadcast after the deterministic trigger
	refFlooding        // the deterministic FloodSet stage
	refHalted
)

// refProc is one process of the reference model: the pseudocode's
// variables, with the whole history of N.
type refProc struct {
	b, stage  int
	decided   bool // the pseudocode's revocable flag
	decision  int  // -1 until the process halts
	hist      []int
	seen      [2]bool // the deterministic stage's witnessed set
	floodSent int
	crashed   bool
	inbox     []refMsg // the messages delivered in the previous round
}

// refModel runs Section 4 for n processes, drawing every private coin
// from coin in process-id order within a round, the order in which the
// engine runs a round's processes.
type refModel struct {
	n     int
	procs []refProc
	coin  func() int
}

func newRefModel(inputs []int, coin func() int) *refModel {
	m := &refModel{n: len(inputs), coin: coin, procs: make([]refProc, len(inputs))}
	for i, x := range inputs {
		m.procs[i] = refProc{b: x, stage: refVoting, decision: -1}
	}
	return m
}

// running reports whether process i takes part in the next round.
func (m *refModel) running(i int) bool {
	return !m.procs[i].crashed && m.procs[i].stage != refHalted
}

// round runs every running process's step of round r, then crashes
// the choice's victim and delivers the round's messages. It returns
// what each process broadcast (ok = false: nothing).
func (m *refModel) round(r int, c *crashChoice) (msgs []refMsg, ok []bool) {
	msgs, ok = make([]refMsg, m.n), make([]bool, m.n)
	ran := make([]bool, m.n)
	for i := range m.procs {
		if ran[i] = m.running(i); ran[i] {
			msgs[i], ok[i] = m.step(&m.procs[i], r)
		}
	}
	if c != nil && c.round == r {
		m.procs[c.victim].crashed = true
	}
	for j := range m.procs {
		if !ran[j] {
			continue
		}
		m.procs[j].inbox = m.procs[j].inbox[:0]
		for s := range m.procs {
			if s == j || !ok[s] || (c != nil && c.round == r && s == c.victim && !c.deliver[j]) {
				continue
			}
			m.procs[j].inbox = append(m.procs[j].inbox, msgs[s])
		}
	}
	return msgs, ok
}

// step is callback r of p: it reads the messages of round r−1 and
// returns p's round-r broadcast.
func (m *refModel) step(p *refProc, r int) (refMsg, bool) {
	if r == 1 {
		return refMsg{vote: p.b}, true // send the input
	}
	switch p.stage {
	case refVoting:
		return m.vote(p, r-1)
	case refWarmup:
		// The frozen b plus every value heard in the handover round
		// seeds the flood set.
		p.seen = [2]bool{}
		p.seen[p.b] = true
		p.witness()
		p.stage, p.floodSent = refFlooding, 1
		return refMsg{flood: true, set: p.seen}, true
	default:
		p.witness()
		if p.floodSent == FloodRounds(m.n) {
			// FloodSet's rule: the singleton {v} decides v, a mixed set 0.
			v := 0
			if p.seen == [2]bool{false, true} {
				v = 1
			}
			p.halt(v)
			return refMsg{}, false
		}
		p.floodSent++
		return refMsg{flood: true, set: p.seen}, true
	}
}

// witness adds every value p's inbox carries to its flood set.
func (p *refProc) witness() {
	for _, msg := range p.inbox {
		if msg.flood {
			p.seen[0] = p.seen[0] || msg.set[0]
			p.seen[1] = p.seen[1] || msg.set[1]
		} else {
			p.seen[msg.vote] = true
		}
	}
}

func (p *refProc) halt(v int) {
	p.stage, p.decision = refHalted, v
}

// vote is one iteration of the main loop for round rr, whose messages
// p's inbox holds.
func (m *refModel) vote(p *refProc, rr int) (refMsg, bool) {
	// O, Z and N of round rr, including b_i.
	o, z := 0, 0
	for _, msg := range append(p.inbox, refMsg{vote: p.b}) {
		if msg.votesOne() {
			o++
		} else {
			z++
		}
	}
	N := o + z
	p.hist = append(p.hist, N)
	at := func(k int) int { // N^k, with N^k = n for k <= 0
		if k <= 0 {
			return m.n
		}
		return p.hist[k-1]
	}
	if float64(N) < DetThreshold(m.n) {
		p.stage = refWarmup
		return refMsg{vote: p.b}, true
	}
	if p.decided {
		if 10*(at(rr-3)-N) <= at(rr-2) {
			p.halt(p.b)
			return refMsg{}, false
		}
		p.decided = false
	}
	prev := at(rr - 1)
	switch {
	case 10*o > 7*prev:
		p.b, p.decided = 1, true
	case 10*o > 6*prev:
		p.b = 1
	case z == 0:
		p.b = 1
	case 10*o < 4*prev:
		p.b, p.decided = 0, true
	case 10*o < 5*prev:
		p.b = 0
	default:
		p.b = m.coin() & 1
	}
	return refMsg{vote: p.b}, true
}

// maxRounds caps every enumerated execution; crashRounds is the last
// round a crash is enumerated in, which no execution outlasts.
const maxRounds, crashRounds = 40, 16

// checkScripted runs SynRan on the object core with the scripted coins
// and one crash choice, round by round beside the reference model with
// the same coins, and fails at the first broadcast, decision or halt
// round the two disagree on. It reports whether the execution hit the
// round cap and the model's halt round.
func checkScripted(t *testing.T, inputs []int, c *crashChoice, bits []int, maxBits int) (script *coinScript, capped bool, halt int) {
	t.Helper()
	n := len(inputs)
	script = &coinScript{bits: append([]int(nil), bits...), max: maxBits}
	modelScript := &coinScript{bits: append([]int(nil), bits...), max: maxBits}
	procs := make([]sim.Process, n)
	for i := range procs {
		p, err := NewProc(i, n, inputs[i], newTestStream(uint64(i)+1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		p.SetFlip(script.next)
		procs[i] = p
	}
	exec, err := sim.NewExecution(sim.Config{N: n, T: 1, MaxRounds: maxRounds}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	model := newRefModel(inputs, modelScript.next)
	where := func() string { return fmt.Sprintf("inputs %v, crash %+v, coins %v", inputs, c, script.bits) }
	for r := 1; !exec.Done(); r++ {
		if r > maxRounds {
			return script, true, 0
		}
		v, err := exec.StepPhaseA()
		if err != nil {
			t.Fatal(err)
		}
		msgs, ok := model.round(r, c)
		for i := 0; i < n; i++ {
			if v.IsSending(i) != ok[i] || ok[i] && v.Payload(i) != msgs[i].payload() {
				t.Fatalf("%s: round %d: p%d broadcasts (%v, %#x), the model (%v, %#x)",
					where(), r, i, v.IsSending(i), v.Payload(i), ok[i], msgs[i].payload())
			}
		}
		if err := exec.FinishRound(c.plan(r)); err != nil {
			t.Fatal(err)
		}
		if halt == 0 {
			halt = r
			for i := range model.procs {
				if model.running(i) {
					halt = 0
				}
			}
		}
	}
	if script.pos != modelScript.pos {
		t.Fatalf("%s: the engine drew %d coins, the model %d", where(), script.pos, modelScript.pos)
	}
	res := exec.Result()
	if res.HaltRounds != halt {
		t.Fatalf("%s: halted after %d rounds, the model after %d", where(), res.HaltRounds, halt)
	}
	for i, p := range model.procs {
		want := p.decision
		if p.crashed {
			want = -1
		}
		if res.Decisions[i] != want {
			t.Fatalf("%s: p%d decides %d, the model %d", where(), i, res.Decisions[i], want)
		}
	}
	if !res.Agreement || !res.Validity {
		t.Fatalf("SAFETY VIOLATION: %s: agreement=%v validity=%v decisions=%v",
			where(), res.Agreement, res.Validity, res.Decisions)
	}
	return script, false, halt
}

// modelCheck enumerates every input vector, every single crash in
// rounds 1..crashRounds, and every coin script of at most maxBits
// flips, judging each execution against the reference model.
func modelCheck(t *testing.T, n, maxBits int) {
	t.Helper()
	executions, capped, longest := 0, 0, 0
	for m := 0; m < 1<<n; m++ {
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = (m >> i) & 1
		}
		for _, c := range crashChoices(n, crashRounds) {
			for bits := []int{}; bits != nil; executions++ {
				script, hitCap, halt := checkScripted(t, inputs, c, bits, maxBits)
				if hitCap {
					capped++ // probability-zero forever-disagree path
				}
				longest = max(longest, halt)
				bits = nextScript(script.bits)
			}
		}
	}
	if longest > crashRounds {
		t.Fatalf("an execution ran %d rounds, past the last crash round %d: not every single crash was enumerated", longest, crashRounds)
	}
	t.Logf("n=%d: %d executions judged against the model (%d hit the round cap, the longest halted after %d rounds)",
		n, executions, capped, longest)
}

func TestModelCheckN2(t *testing.T) {
	modelCheck(t, 2, 16)
}

func TestModelCheckN3(t *testing.T) {
	modelCheck(t, 3, 14)
}

// TestModelCheckScriptEnumeration sanity-checks the binary-counter
// script enumeration itself.
func TestModelCheckScriptEnumeration(t *testing.T) {
	seen := map[string]bool{}
	bits := []int{}
	for i := 0; i < 100; i++ {
		// Simulate a run that always consumes exactly 3 coins.
		script := &coinScript{bits: append([]int(nil), bits...), max: 8}
		for j := 0; j < 3; j++ {
			script.next()
		}
		key := fmt.Sprint(script.bits)
		if seen[key] {
			t.Fatalf("script %v enumerated twice", script.bits)
		}
		seen[key] = true
		bits = nextScript(script.bits)
		if bits == nil {
			break
		}
	}
	if len(seen) != 8 {
		t.Fatalf("enumerated %d scripts of 3 coins, want 8", len(seen))
	}
}
