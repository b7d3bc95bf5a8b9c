package floodset

import (
	"testing"
	"testing/quick"

	"synran/internal/adversary"
	"synran/internal/sim"
	"synran/internal/wire"
)

func runFloodSet(t *testing.T, n, tt int, inputs []int, adv sim.Adversary, seed uint64) *sim.Result {
	t.Helper()
	procs, err := NewProcs(n, tt, inputs)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := sim.NewExecution(sim.Config{N: n, T: tt}, procs, inputs, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(adv)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNoFaultsUnanimous(t *testing.T) {
	for _, v := range []int{0, 1} {
		inputs := []int{v, v, v, v}
		res := runFloodSet(t, 4, 2, inputs, adversary.None{}, 1)
		if !res.Agreement || !res.Validity {
			t.Fatalf("agreement=%v validity=%v", res.Agreement, res.Validity)
		}
		if res.DecidedValue() != v {
			t.Fatalf("decided %d on all-%d inputs", res.DecidedValue(), v)
		}
	}
}

func TestMixedInputsDefaultZero(t *testing.T) {
	inputs := []int{0, 1, 0, 1}
	res := runFloodSet(t, 4, 1, inputs, adversary.None{}, 1)
	if res.DecidedValue() != 0 {
		t.Fatalf("mixed inputs decided %d, want the default 0", res.DecidedValue())
	}
}

func TestRoundCountIsTPlusOne(t *testing.T) {
	// FloodSet floods for t+1 exchange rounds, then decides while
	// processing the final inbox: t+2 engine rounds in total.
	for _, tt := range []int{0, 1, 3, 7} {
		n := tt + 3
		inputs := make([]int, n)
		res := runFloodSet(t, n, tt, inputs, adversary.None{}, 1)
		if res.HaltRounds != tt+2 {
			t.Fatalf("t=%d: halted after %d rounds, want %d", tt, res.HaltRounds, tt+2)
		}
	}
}

// chainAdversary builds the classic FloodSet worst case: a chain of
// crashing processes, each revealing the hidden value to exactly one new
// process per round.
func chainAdversary(n int) *adversary.Schedule {
	plans := make(map[int][]sim.CrashPlan)
	for r := 1; r < n; r++ {
		victim := r - 1 // process r-1 crashes in round r
		mask := sim.NewBitSet(n)
		mask.Set(victim + 1) // only the next process hears it
		plans[r] = []sim.CrashPlan{{Victim: victim, Deliver: mask}}
	}
	return &adversary.Schedule{Plans: plans}
}

func TestAgreementUnderChainCrash(t *testing.T) {
	// Process 0 is the only holder of value 1; the adversary leaks it
	// along a chain of crashes. With rounds = t+1 the protocol still
	// agrees: this is the scenario that forces the t+1 bound.
	const n = 6
	inputs := []int{1, 0, 0, 0, 0, 0}
	res := runFloodSet(t, n, n-1, inputs, chainAdversary(n), 1)
	if !res.Agreement {
		t.Fatalf("agreement violated under chain crash: %v", res.Decisions)
	}
	if !res.Validity {
		t.Fatalf("validity violated: %v", res.Decisions)
	}
}

func TestInsufficientRoundsCanDisagree(t *testing.T) {
	// Sanity check on the chain construction itself: with only 2 flood
	// rounds but a longer crash chain, views can diverge. We only require
	// that the starved run completes without an engine error; the t+1
	// variant above is the one that must agree.
	const n = 6
	inputs := []int{1, 0, 0, 0, 0, 0}
	procs := make([]sim.Process, n)
	for i := range procs {
		p, err := NewProc(i, inputs[i], 2) // too few rounds for 5 crashes
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	exec, err := sim.NewExecution(sim.Config{N: n, T: n - 1}, procs, inputs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(chainAdversary(n)); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewProc(0, 2, 3); err == nil {
		t.Fatal("input 2 must be rejected")
	}
	if _, err := NewProc(0, 0, 0); err == nil {
		t.Fatal("rounds 0 must be rejected")
	}
	if _, err := NewProcs(3, 1, []int{0}); err == nil {
		t.Fatal("input length mismatch must be rejected")
	}
}

func TestSafetyQuick(t *testing.T) {
	f := func(nRaw, tRaw uint8, bits uint32, seed uint64) bool {
		n := int(nRaw%12) + 1
		tt := int(tRaw) % (n + 1)
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = int(bits>>uint(i%32)) & 1
		}
		procs, err := NewProcs(n, tt, inputs)
		if err != nil {
			return false
		}
		exec, err := sim.NewExecution(sim.Config{N: n, T: tt}, procs, inputs, seed)
		if err != nil {
			return false
		}
		res, err := exec.Run(&adversary.Random{PerRound: 0.7, MaxPerRound: 2})
		if err != nil {
			return false
		}
		return res.Agreement && res.Validity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p, err := NewProc(0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Clone().(*Proc)
	p.Round(1, nil)
	p.Round(2, []sim.Recv{{From: 1, Payload: wire.MaskZero}})
	if c.s.sent != 0 {
		t.Fatalf("clone advanced with original: sent=%d", c.s.sent)
	}
	if int64(c.s.mask) != wire.MaskOne {
		t.Fatalf("clone mask = %b, want the untouched input {1}", c.s.mask)
	}
}

// TestPayloadsAreTaggedFloodWords pins the wire contract the conformance
// oracle enforces: every broadcast carries FloodTag and a well-formed
// value-set mask, never a raw mask that CheckPayload would read as a
// (malformed) plain-bit message.
func TestPayloadsAreTaggedFloodWords(t *testing.T) {
	p, err := NewProc(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; ; r++ {
		payload, sending := p.Round(r, []sim.Recv{{From: 1, Payload: wire.Flood(wire.MaskZero)}})
		if !sending {
			break
		}
		if !wire.IsFlood(payload) {
			t.Fatalf("round %d: payload %#x is not flood-tagged", r, payload)
		}
		if err := wire.CheckPayload(payload); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if v, ok := p.Decided(); !ok || v != 0 {
		t.Fatalf("decided (%d, %v), want (0, true) on a mixed witness set", v, ok)
	}
}

// TestNewProcsAllocationsFlat pins the one-block process vector that
// NewProcs and NewProcsTolerant share: the same few allocations at
// n = 64 as at n = 4096, never one per process.
func TestNewProcsAllocationsFlat(t *testing.T) {
	allocs := func(n int, tolerant bool) float64 {
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = i & 1
		}
		return testing.AllocsPerRun(10, func() {
			var err error
			if tolerant {
				_, err = NewProcsTolerant(n, n/2, n/2, inputs)
			} else {
				_, err = NewProcs(n, n-1, inputs)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, tolerant := range []bool{false, true} {
		if small, large := allocs(64, tolerant), allocs(4096, tolerant); small > 2 || large != small {
			t.Errorf("tolerant=%v: %.0f allocations at n = 64 and %.0f at n = 4096, want at most 2 at both", tolerant, small, large)
		}
	}
}
