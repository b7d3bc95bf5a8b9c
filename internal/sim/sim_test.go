package sim

import (
	"errors"
	"strings"
	"testing"
)

// testProc is a configurable protocol used to exercise the engine:
// it broadcasts its input every round, records inboxes, decides its own
// input in decideAt, and halts in haltAt.
type testProc struct {
	input    int
	decideAt int
	haltAt   int

	round   int
	recvLog [][]Recv
	decided bool
	stopped bool
}

func (p *testProc) Round(r int, inbox []Recv) (int64, bool) {
	p.round = r
	cp := append([]Recv(nil), inbox...)
	p.recvLog = append(p.recvLog, cp)
	if p.decideAt > 0 && r >= p.decideAt {
		p.decided = true
	}
	if p.haltAt > 0 && r >= p.haltAt {
		p.stopped = true
	}
	return int64(p.input), true
}

func (p *testProc) Decided() (int, bool) { return p.input, p.decided }
func (p *testProc) Stopped() bool        { return p.stopped }

func (p *testProc) Clone() Process {
	c := *p
	c.recvLog = make([][]Recv, len(p.recvLog))
	for i, l := range p.recvLog {
		c.recvLog[i] = append([]Recv(nil), l...)
	}
	return &c
}

// planAdversary replays a fixed per-round crash schedule.
type planAdversary struct {
	plans map[int][]CrashPlan
}

func (a *planAdversary) Name() string { return "plan" }
func (a *planAdversary) Plan(v *View) []CrashPlan {
	return a.plans[v.Round]
}
func (a *planAdversary) Clone() Adversary { return a }

type noneAdversary struct{}

func (noneAdversary) Name() string           { return "none" }
func (noneAdversary) Plan(*View) []CrashPlan { return nil }
func (noneAdversary) Clone() Adversary       { return noneAdversary{} }

func mkProcs(n, decideAt, haltAt int, inputs []int) []Process {
	ps := make([]Process, n)
	for i := range ps {
		ps[i] = &testProc{input: inputs[i], decideAt: decideAt, haltAt: haltAt}
	}
	return ps
}

func uniformInputs(n, v int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = v
	}
	return in
}

func TestConfigValidation(t *testing.T) {
	inputs := uniformInputs(4, 0)
	tests := []struct {
		name   string
		cfg    Config
		procs  []Process
		inputs []int
	}{
		{"zero n", Config{N: 0}, nil, nil},
		{"proc mismatch", Config{N: 4}, mkProcs(3, 1, 1, uniformInputs(3, 0)), inputs},
		{"input mismatch", Config{N: 4}, mkProcs(4, 1, 1, inputs), uniformInputs(3, 0)},
		{"t negative", Config{N: 4, T: -1}, mkProcs(4, 1, 1, inputs), inputs},
		{"t too big", Config{N: 4, T: 5}, mkProcs(4, 1, 1, inputs), inputs},
		{"bad input", Config{N: 4, T: 1}, mkProcs(4, 1, 1, inputs), []int{0, 1, 2, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewExecution(tt.cfg, tt.procs, tt.inputs, 1); err == nil {
				t.Fatal("expected configuration error, got nil")
			}
		})
	}
}

func TestFullBroadcastDelivery(t *testing.T) {
	const n = 5
	inputs := []int{0, 1, 1, 0, 1}
	procs := mkProcs(n, 2, 3, inputs)
	e, err := NewExecution(Config{N: n, T: 0}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(noneAdversary{}); err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		tp := p.(*testProc)
		// Round 1 inbox is empty; round 2 inbox has n-1 messages.
		if len(tp.recvLog[0]) != 0 {
			t.Fatalf("p%d round-1 inbox has %d messages, want 0", i, len(tp.recvLog[0]))
		}
		if len(tp.recvLog[1]) != n-1 {
			t.Fatalf("p%d round-2 inbox has %d messages, want %d", i, len(tp.recvLog[1]), n-1)
		}
		for _, m := range tp.recvLog[1] {
			if m.From == i {
				t.Fatalf("p%d received its own broadcast", i)
			}
			if int(m.Payload) != inputs[m.From] {
				t.Fatalf("p%d received payload %d from p%d, want %d", i, m.Payload, m.From, inputs[m.From])
			}
		}
	}
}

func TestCrashSilencesSender(t *testing.T) {
	const n = 4
	inputs := uniformInputs(n, 1)
	procs := mkProcs(n, 1, 4, inputs)
	adv := &planAdversary{plans: map[int][]CrashPlan{
		1: {{Victim: 2, Deliver: nil}}, // message reaches no one
	}}
	e, err := NewExecution(Config{N: n, T: 1}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(adv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 || res.Survivors != n-1 {
		t.Fatalf("crashes=%d survivors=%d, want 1 and %d", res.Crashes, res.Survivors, n-1)
	}
	for i, p := range procs {
		if i == 2 {
			continue
		}
		tp := p.(*testProc)
		if got := len(tp.recvLog[1]); got != n-2 {
			t.Fatalf("p%d round-2 inbox has %d messages, want %d", i, got, n-2)
		}
		for _, m := range tp.recvLog[1] {
			if m.From == 2 {
				t.Fatalf("p%d received a message from the crashed p2", i)
			}
		}
	}
}

func TestPartialDelivery(t *testing.T) {
	const n = 4
	inputs := uniformInputs(n, 1)
	procs := mkProcs(n, 1, 3, inputs)
	mask := NewBitSet(n)
	mask.Set(0) // only p0 hears p2's final message
	adv := &planAdversary{plans: map[int][]CrashPlan{
		1: {{Victim: 2, Deliver: mask}},
	}}
	e, err := NewExecution(Config{N: n, T: 1}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(adv); err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		if i == 2 {
			continue
		}
		tp := p.(*testProc)
		sawP2 := false
		for _, m := range tp.recvLog[1] {
			if m.From == 2 {
				sawP2 = true
			}
		}
		if (i == 0) != sawP2 {
			t.Fatalf("p%d sawP2=%v, want %v", i, sawP2, i == 0)
		}
	}
}

func TestCrashedProcessNeverSendsAgain(t *testing.T) {
	const n = 3
	inputs := uniformInputs(n, 0)
	procs := mkProcs(n, 1, 5, inputs)
	full := NewBitSet(n)
	full.Fill()
	adv := &planAdversary{plans: map[int][]CrashPlan{
		2: {{Victim: 1, Deliver: full}}, // silent crash: last message delivered
	}}
	e, err := NewExecution(Config{N: n, T: 1}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(adv); err != nil {
		t.Fatal(err)
	}
	p0 := procs[0].(*testProc)
	// Round 3 inbox (index 2) contains p1's final round-2 message; from
	// round 4 (index 3) on, p1 is gone.
	saw := func(idx int) bool {
		for _, m := range p0.recvLog[idx] {
			if m.From == 1 {
				return true
			}
		}
		return false
	}
	if !saw(1) || !saw(2) {
		t.Fatal("p0 should hear p1 in rounds 2 and 3 (silent crash delivers the last message)")
	}
	if saw(3) {
		t.Fatal("p0 heard the crashed p1 after its crash round")
	}
}

func TestBudgetEnforced(t *testing.T) {
	const n = 6
	inputs := uniformInputs(n, 0)
	procs := mkProcs(n, 1, 3, inputs)
	adv := &planAdversary{plans: map[int][]CrashPlan{
		1: {{Victim: 0}, {Victim: 1}, {Victim: 2}, {Victim: 3}},
	}}
	e, err := NewExecution(Config{N: n, T: 2}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(adv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 2 {
		t.Fatalf("crashes = %d, want budget cap 2", res.Crashes)
	}
}

func TestInvalidPlansSkipped(t *testing.T) {
	const n = 4
	inputs := uniformInputs(n, 0)
	procs := mkProcs(n, 1, 3, inputs)
	adv := &planAdversary{plans: map[int][]CrashPlan{
		1: {{Victim: -1}, {Victim: 99}, {Victim: 1}, {Victim: 1}},
	}}
	e, err := NewExecution(Config{N: n, T: 3}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(adv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1 (invalid and duplicate victims skipped)", res.Crashes)
	}
}

func TestResultAgreementValidity(t *testing.T) {
	t.Run("uniform inputs agree valid", func(t *testing.T) {
		inputs := uniformInputs(3, 1)
		procs := mkProcs(3, 1, 2, inputs)
		e, _ := NewExecution(Config{N: 3, T: 0}, procs, inputs, 1)
		res, err := e.Run(noneAdversary{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Agreement || !res.Validity {
			t.Fatalf("agreement=%v validity=%v, want true/true", res.Agreement, res.Validity)
		}
		if res.DecidedValue() != 1 {
			t.Fatalf("decided value = %d, want 1", res.DecidedValue())
		}
	})
	t.Run("split decisions violate agreement", func(t *testing.T) {
		inputs := []int{0, 1}
		procs := mkProcs(2, 1, 2, inputs) // testProc decides its own input
		e, _ := NewExecution(Config{N: 2, T: 0}, procs, inputs, 1)
		res, err := e.Run(noneAdversary{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Agreement {
			t.Fatal("agreement should be violated (processes decided their own inputs)")
		}
		if res.DecidedValue() != -1 {
			t.Fatalf("DecidedValue = %d, want -1 on disagreement", res.DecidedValue())
		}
		// Validity is vacuous here: inputs are mixed.
		if !res.Validity {
			t.Fatal("validity must hold vacuously for mixed inputs")
		}
	})
}

func TestDecideAndHaltRounds(t *testing.T) {
	inputs := uniformInputs(3, 0)
	procs := mkProcs(3, 2, 4, inputs)
	e, _ := NewExecution(Config{N: 3, T: 0}, procs, inputs, 1)
	res, err := e.Run(noneAdversary{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DecideRounds != 2 {
		t.Fatalf("DecideRounds = %d, want 2", res.DecideRounds)
	}
	if res.HaltRounds != 4 {
		t.Fatalf("HaltRounds = %d, want 4", res.HaltRounds)
	}
}

func TestMaxRounds(t *testing.T) {
	inputs := uniformInputs(2, 0)
	procs := mkProcs(2, 0, 0, inputs) // never decides, never halts
	e, _ := NewExecution(Config{N: 2, T: 0, MaxRounds: 10}, procs, inputs, 1)
	_, err := e.Run(noneAdversary{})
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestAllCrashedVacuous(t *testing.T) {
	const n = 3
	inputs := uniformInputs(n, 1)
	procs := mkProcs(n, 0, 0, inputs) // would never terminate on its own
	adv := &planAdversary{plans: map[int][]CrashPlan{
		1: {{Victim: 0}, {Victim: 1}},
		2: {{Victim: 2}},
	}}
	e, _ := NewExecution(Config{N: n, T: n}, procs, inputs, 1)
	res, err := e.Run(adv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Survivors != 0 {
		t.Fatalf("survivors = %d, want 0", res.Survivors)
	}
	if !res.Agreement || !res.Validity {
		t.Fatal("agreement and validity must hold vacuously when everyone crashed")
	}
	if res.DecideRounds != 2 || res.HaltRounds != 2 || e.HaltRound() != 2 {
		t.Fatalf("decide/halt rounds %d/%d, HaltRound %d: want the round the last process crashed, 2",
			res.DecideRounds, res.HaltRounds, e.HaltRound())
	}
}

func TestHaltedProcessStopsParticipating(t *testing.T) {
	const n = 3
	inputs := uniformInputs(n, 0)
	procs := make([]Process, n)
	for i := range procs {
		haltAt := 5
		if i == 0 {
			haltAt = 1 // p0 halts immediately after its round-1 broadcast
		}
		procs[i] = &testProc{input: 0, decideAt: 1, haltAt: haltAt}
	}
	e, _ := NewExecution(Config{N: n, T: 0}, procs, inputs, 1)
	if _, err := e.Run(noneAdversary{}); err != nil {
		t.Fatal(err)
	}
	p0 := procs[0].(*testProc)
	if p0.round != 1 {
		t.Fatalf("halted p0 was scheduled after round 1 (last round %d)", p0.round)
	}
	// p1 hears p0's round-1 broadcast but nothing after.
	p1 := procs[1].(*testProc)
	for idx := 1; idx < len(p1.recvLog); idx++ {
		for _, m := range p1.recvLog[idx] {
			if m.From == 0 && idx > 1 {
				t.Fatalf("p1 heard halted p0 in round %d", idx+1)
			}
		}
	}
}

func TestStepErrors(t *testing.T) {
	inputs := uniformInputs(2, 0)
	procs := mkProcs(2, 1, 2, inputs)
	e, _ := NewExecution(Config{N: 2, T: 0}, procs, inputs, 1)
	if err := e.FinishRound(nil); err == nil {
		t.Fatal("FinishRound without an open round must fail")
	}
	if _, err := e.StepPhaseA(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.StepPhaseA(); err == nil {
		t.Fatal("second StepPhaseA without FinishRound must fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	const n = 4
	inputs := []int{1, 0, 1, 0}
	procs := mkProcs(n, 3, 5, inputs)
	e, _ := NewExecution(Config{N: n, T: 2}, procs, inputs, 99)

	// Advance one full round, then snapshot.
	if _, err := e.StepPhaseA(); err != nil {
		t.Fatal(err)
	}
	if err := e.FinishRound(nil); err != nil {
		t.Fatal(err)
	}
	c := e.Clone()

	// Drive the clone to completion with crashes; the original must be
	// untouched.
	adv := &planAdversary{plans: map[int][]CrashPlan{2: {{Victim: 0}}}}
	if _, err := c.Run(adv); err != nil {
		t.Fatal(err)
	}
	if !e.Alive(0) {
		t.Fatal("crash in clone leaked into the original execution")
	}
	if e.Round() != 1 {
		t.Fatalf("original advanced to round %d while driving the clone", e.Round())
	}

	// The original still completes normally.
	res, err := e.Run(noneAdversary{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 0 {
		t.Fatalf("original recorded %d crashes, want 0", res.Crashes)
	}
}

func TestCloneMidPhaseA(t *testing.T) {
	const n = 3
	inputs := uniformInputs(n, 1)
	procs := mkProcs(n, 2, 3, inputs)
	e, _ := NewExecution(Config{N: n, T: 1}, procs, inputs, 7)
	if _, err := e.StepPhaseA(); err != nil {
		t.Fatal(err)
	}
	c := e.Clone()
	if err := c.FinishRound(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(noneAdversary{}); err != nil {
		t.Fatal(err)
	}
	// Original round is still open and can be finished too.
	if err := e.FinishRound(nil); err != nil {
		t.Fatal(err)
	}
}

func TestObserverEvents(t *testing.T) {
	var sb strings.Builder
	const n = 3
	inputs := uniformInputs(n, 1)
	procs := mkProcs(n, 1, 2, inputs)
	adv := &planAdversary{plans: map[int][]CrashPlan{1: {{Victim: 2}}}}
	e, _ := NewExecution(Config{N: n, T: 1, Observer: &TraceObserver{W: &sb}}, procs, inputs, 1)
	if _, err := e.Run(adv); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"round   1", "crash p2", "decides 1", "halts"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestCrashHistogram(t *testing.T) {
	hist := &CrashHistogram{}
	const n = 6
	inputs := uniformInputs(n, 0)
	procs := mkProcs(n, 4, 5, inputs)
	adv := &planAdversary{plans: map[int][]CrashPlan{
		1: {{Victim: 0}},
		3: {{Victim: 1}, {Victim: 2}},
	}}
	e, _ := NewExecution(Config{N: n, T: 3, Observer: hist}, procs, inputs, 1)
	if _, err := e.Run(adv); err != nil {
		t.Fatal(err)
	}
	if hist.Total() != 3 {
		t.Fatalf("histogram total = %d, want 3", hist.Total())
	}
	if hist.PerRound[1] != 1 || hist.PerRound[3] != 2 {
		t.Fatalf("per-round = %v, want crash counts 1@r1 and 2@r3", hist.PerRound)
	}
	blocks := hist.BlockTotals(3)
	if len(blocks) == 0 || blocks[0] != 3 {
		t.Fatalf("block totals = %v, want first block = 3", blocks)
	}
}

func TestViewAliveCount(t *testing.T) {
	const n = 4
	inputs := uniformInputs(n, 0)
	procs := mkProcs(n, 1, 3, inputs)
	e, _ := NewExecution(Config{N: n, T: 1}, procs, inputs, 1)
	v, err := e.StepPhaseA()
	if err != nil {
		t.Fatal(err)
	}
	if v.AliveCount() != n {
		t.Fatalf("AliveCount = %d, want %d", v.AliveCount(), n)
	}
	if err := e.FinishRound([]CrashPlan{{Victim: 3}}); err != nil {
		t.Fatal(err)
	}
	v, err = e.StepPhaseA()
	if err != nil {
		t.Fatal(err)
	}
	if v.AliveCount() != n-1 {
		t.Fatalf("AliveCount after crash = %d, want %d", v.AliveCount(), n-1)
	}
	if err := e.FinishRound(nil); err != nil {
		t.Fatal(err)
	}
}

func TestMessageComplexityCounted(t *testing.T) {
	// 3 processes, no faults, each sends for 2 rounds then halts:
	// round 1 delivers 3·2 messages; round 2 likewise (halting happens
	// during round 2's Phase A of round 3... count exactly).
	const n = 3
	inputs := uniformInputs(n, 1)
	procs := mkProcs(n, 1, 2, inputs)
	e, err := NewExecution(Config{N: n, T: 0}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(noneAdversary{})
	if err != nil {
		t.Fatal(err)
	}
	// Each of 2 rounds delivers every sender's broadcast to the n-1
	// others; halts are only visible to the network from the NEXT round,
	// so round 2's messages still go out (and are counted).
	if res.Messages != 2*n*(n-1) {
		t.Fatalf("messages = %d, want %d", res.Messages, 2*n*(n-1))
	}
}

func TestMessageComplexityCrashReduces(t *testing.T) {
	const n = 4
	inputs := uniformInputs(n, 1)
	mk := func() []Process { return mkProcs(n, 2, 3, inputs) }

	e1, err := NewExecution(Config{N: n, T: 0}, mk(), inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e1.Run(noneAdversary{})
	if err != nil {
		t.Fatal(err)
	}

	adv := &planAdversary{plans: map[int][]CrashPlan{1: {{Victim: 0}}}}
	e2, err := NewExecution(Config{N: n, T: 1}, mk(), inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Run(adv)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Messages >= r1.Messages {
		t.Fatalf("crash did not reduce message complexity: %d vs %d", r2.Messages, r1.Messages)
	}
}
