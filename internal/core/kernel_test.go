package core

import (
	"testing"

	"synran/internal/sim"
	"synran/internal/workload"
)

// TestKernelRoundSparseActive pins KernelRound's contract on a sparse
// active set spread over three words: every active process produces
// Proc.Round's payload and sending bit (the stale bit it starts from is
// overwritten), and every inactive process's payload and clear sending
// bit are left untouched. With empty inboxes the active processes run
// through the deterministic stage until they halt and go quiet.
func TestKernelRoundSparseActive(t *testing.T) {
	const n, untouched = 130, -7
	inputs := workload.HalfHalf(n)
	procs, err := NewProcs(n, inputs, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]sim.Process, n)
	for i, p := range procs {
		objs[i] = p.Clone()
	}
	k := procs[0].(*Proc).BuildKernel(procs)
	active, sending := sim.NewBitSet(n), sim.NewBitSet(n)
	payloads := make([]int64, n)
	for i := range payloads {
		payloads[i] = untouched
		if i%9 == 0 || i == 63 || i == 64 || i == n-1 {
			active.Set(i)
			if i%2 == 0 {
				sending.Set(i) // stale from an earlier round
			}
		}
	}
	cols := &sim.TallyColumns{Ones: make([]int32, n), Zeros: make([]int32, n), Count: make([]int32, n),
		MaskZero: make([]int32, n), MaskOne: make([]int32, n)} // all zero: the empty inbox
	quiet := false
	for r := 1; r <= FloodRounds(n)+3; r++ {
		k.KernelRound(r, active, cols, payloads, sending)
		for i := 0; i < n; i++ {
			if !active.Get(i) {
				if payloads[i] != untouched || sending.Get(i) {
					t.Fatalf("round %d: inactive process %d: payload %d sending %v, want untouched and clear",
						r, i, payloads[i], sending.Get(i))
				}
				continue
			}
			want, wantSend := objs[i].Round(r, nil)
			if payloads[i] != want || sending.Get(i) != wantSend {
				t.Fatalf("round %d: process %d: kernel (%#x, %v), Round (%#x, %v)", r, i, payloads[i], sending.Get(i), want, wantSend)
			}
			quiet = quiet || !wantSend
		}
	}
	if !quiet {
		t.Fatal("no active process went quiet: the stale sending bits were never overwritten with false")
	}
}
