package netsim

import (
	"errors"
	"testing"

	"synran/internal/adversary"
	"synran/internal/core"
	"synran/internal/protocol/earlystop"
	"synran/internal/protocol/floodset"
	"synran/internal/protocol/phaseking"
	"synran/internal/sim"
)

func halfInputs(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i % 2
	}
	return in
}

func TestEquivalenceWithSequentialEngine(t *testing.T) {
	// The live runner must produce bit-for-bit the same result as the
	// lock-step engine: same decisions, same rounds, same crash count.
	for _, n := range []int{3, 8, 24} {
		for seed := uint64(0); seed < 6; seed++ {
			inputs := halfInputs(n)
			tt := n / 2

			mk := func() ([]sim.Process, sim.Adversary) {
				procs, err := core.NewProcs(n, inputs, seed, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return procs, &adversary.Random{PerRound: 0.6, MaxPerRound: 2}
			}

			procsA, advA := mk()
			exec, err := sim.NewExecution(sim.Config{N: n, T: tt}, procsA, inputs, seed)
			if err != nil {
				t.Fatal(err)
			}
			seqRes, err := exec.Run(advA)
			if err != nil {
				t.Fatal(err)
			}

			procsB, advB := mk()
			liveRes, err := Run(sim.Config{N: n, T: tt}, procsB, inputs, advB, seed)
			if err != nil {
				t.Fatal(err)
			}

			if seqRes.HaltRounds != liveRes.HaltRounds ||
				seqRes.DecideRounds != liveRes.DecideRounds ||
				seqRes.Crashes != liveRes.Crashes ||
				seqRes.Survivors != liveRes.Survivors ||
				seqRes.Messages != liveRes.Messages ||
				seqRes.DecidedValue() != liveRes.DecidedValue() {
				t.Fatalf("n=%d seed=%d: sequential %+v != live %+v", n, seed, seqRes, liveRes)
			}
			for i := range seqRes.Decisions {
				if seqRes.Decisions[i] != liveRes.Decisions[i] {
					t.Fatalf("n=%d seed=%d: decision[%d] %d != %d",
						n, seed, i, seqRes.Decisions[i], liveRes.Decisions[i])
				}
			}
		}
	}
}

func TestLiveRunnerSafety(t *testing.T) {
	const n = 32
	inputs := halfInputs(n)
	for seed := uint64(0); seed < 5; seed++ {
		procs, err := core.NewProcs(n, inputs, seed, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(sim.Config{N: n, T: n - 1}, procs, inputs, &adversary.SplitVote{}, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Agreement || !res.Validity {
			t.Fatalf("seed=%d: agreement=%v validity=%v", seed, res.Agreement, res.Validity)
		}
	}
}

func TestLiveRunnerValidation(t *testing.T) {
	procs, err := core.NewProcs(4, []int{0, 1, 0, 1}, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sim.Config{N: 5}, procs, []int{0, 1, 0, 1}, adversary.None{}, 1); err == nil {
		t.Fatal("size mismatch must be rejected")
	}
	if _, err := Run(sim.Config{N: 4, T: 9}, procs, []int{0, 1, 0, 1}, adversary.None{}, 1); err == nil {
		t.Fatal("T > N must be rejected")
	}
}

// neverDecide is a process that never decides (to exercise MaxRounds).
type neverDecide struct{}

func (neverDecide) Round(int, []sim.Recv) (int64, bool) { return 0, true }
func (neverDecide) Decided() (int, bool)                { return 0, false }
func (neverDecide) Stopped() bool                       { return false }
func (neverDecide) Clone() sim.Process                  { return neverDecide{} }

func TestLiveRunnerMaxRounds(t *testing.T) {
	procs := []sim.Process{neverDecide{}, neverDecide{}}
	_, err := Run(sim.Config{N: 2, T: 0, MaxRounds: 5}, procs, []int{0, 0}, adversary.None{}, 1)
	if !errors.Is(err, sim.ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestLiveRunnerObserver(t *testing.T) {
	hist := &sim.CrashHistogram{}
	const n = 8
	inputs := halfInputs(n)
	procs, err := core.NewProcs(n, inputs, 3, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := &adversary.Schedule{Plans: map[int][]sim.CrashPlan{1: {{Victim: 0}, {Victim: 1}}}}
	res, err := Run(sim.Config{N: n, T: 2, Observer: hist}, procs, inputs, sched, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 2 || hist.Total() != 2 {
		t.Fatalf("crashes=%d observed=%d, want 2/2", res.Crashes, hist.Total())
	}
}

// TestForgeryFailsTyped runs a Byzantine adversary on the live runner,
// which has no corruption model. It must fail with ErrForgery rather
// than finish fault-free: the same case on the lock-step engine
// corrupts processes 0 and 1.
func TestForgeryFailsTyped(t *testing.T) {
	const n, tt = 9, 2
	inputs := halfInputs(n)
	procs, err := phaseking.NewProcs(n, tt, inputs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sim.Config{N: n, T: tt}, procs, inputs, &adversary.Equivocator{Corruptions: tt}, 7)
	if !errors.Is(err, ErrForgery) {
		t.Fatalf("err = %v (result %+v), want ErrForgery", err, res)
	}
}

func TestCrossEngineDigestEquality(t *testing.T) {
	// The digest observer must produce identical hashes for the same
	// execution on both engines — the strongest cross-engine check.
	const n = 16
	inputs := halfInputs(n)
	seed := uint64(11)

	dSeq := sim.NewDigest()
	procsA, err := core.NewProcs(n, inputs, seed, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := sim.NewExecution(sim.Config{N: n, T: n / 2, Observer: dSeq}, procsA, inputs, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(&adversary.Random{PerRound: 0.6}); err != nil {
		t.Fatal(err)
	}

	dLive := sim.NewDigest()
	procsB, err := core.NewProcs(n, inputs, seed, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sim.Config{N: n, T: n / 2, Observer: dLive}, procsB, inputs,
		&adversary.Random{PerRound: 0.6}, seed); err != nil {
		t.Fatal(err)
	}

	if dSeq.Sum() != dLive.Sum() {
		t.Fatalf("engines digest differently: %s vs %s", dSeq, dLive)
	}
}

func TestLiveRunnerAllProtocols(t *testing.T) {
	// Every fail-stop protocol in the repository runs unchanged on the
	// live engine.
	const n = 13
	inputs := halfInputs(n)
	builders := map[string]func() ([]sim.Process, error){
		"synran": func() ([]sim.Process, error) {
			return core.NewProcs(n, inputs, 3, core.Options{})
		},
		"leadercoin": func() ([]sim.Process, error) {
			return core.NewProcs(n, inputs, 3, core.Options{LeaderCoin: true})
		},
		"floodset": func() ([]sim.Process, error) {
			return floodset.NewProcs(n, 3, inputs)
		},
		"earlystop": func() ([]sim.Process, error) {
			return earlystop.NewProcs(n, 3, inputs)
		},
		"phaseking": func() ([]sim.Process, error) {
			return phaseking.NewProcs(n, 3, inputs)
		},
	}
	for name, mk := range builders {
		procs, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := Run(sim.Config{N: n, T: 3}, procs, inputs, &adversary.Random{PerRound: 0.3}, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Agreement || !res.Validity {
			t.Fatalf("%s: agreement=%v validity=%v", name, res.Agreement, res.Validity)
		}
	}
}
