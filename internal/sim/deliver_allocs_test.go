package sim

import "testing"

// quietProc broadcasts its input forever and never decides, halts, or
// allocates in Round — so any allocation AllocsPerRun observes below
// belongs to the engine, not the protocol fixture.
type quietProc struct{ input int }

func (p *quietProc) Round(r int, inbox []Recv) (int64, bool) { return int64(p.input), true }
func (p *quietProc) Decided() (int, bool)                    { return 0, false }
func (p *quietProc) Stopped() bool                           { return false }
func (p *quietProc) Clone() Process                          { c := *p; return &c }

// TestFinishRoundDeliverAllocs pins deliverSlot's contract: once the
// per-victim scratch masks exist, FinishRound copies each plan's
// delivery mask into engine-owned storage without allocating — the
// adversary may recycle its mask buffers between Plan calls
// (ReusableAdversary), so the engine cannot retain them, and it must
// not pay a BitSet.Clone per victim either (the object engine's old
// 1063-allocs/op Plan cost was exactly that).
func TestFinishRoundDeliverAllocs(t *testing.T) {
	const n = 64
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = &quietProc{input: i & 1}
	}
	exec, err := NewExecution(Config{N: n, T: n - 1}, procs, uniformInputs(n, 0), 1)
	if err != nil {
		t.Fatal(err)
	}

	// Two delivery masks the "adversary" alternates between, mimicking a
	// reusable adversary recycling its buffers.
	maskA, maskB := NewBitSet(n), NewBitSet(n)
	for i := 0; i < n/2; i++ {
		maskA.Set(i)
		if i < n/4 {
			maskB.Set(i)
		}
	}

	victim := 0
	round := func() {
		if _, err := exec.StepPhaseA(); err != nil {
			t.Fatal(err)
		}
		plans := []CrashPlan{
			{Victim: victim, Deliver: maskA},
			{Victim: victim + 1, Deliver: maskB},
		}
		victim += 2
		if err := exec.FinishRound(plans); err != nil {
			t.Fatal(err)
		}
	}

	// Warm every victim's scratch slot: the slots are lazily allocated
	// once per victim (and survive CloneInto reuse in the rollout arena,
	// which is where the zero-alloc steady state pays off).
	for v := 0; v < n; v++ {
		exec.deliverSlot(v, maskA)
	}
	round()
	round()

	// AllocsPerRun adds one extra warm-up call; 8 measured rounds crash
	// 2 victims each, staying well inside the t = n-1 budget.
	if avg := testing.AllocsPerRun(8, round); avg != 0 {
		t.Fatalf("FinishRound with delivery plans allocates %.1f times per round, want 0", avg)
	}
}
