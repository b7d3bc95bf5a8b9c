package sim

import (
	"fmt"
	"testing"

	"synran/internal/rng"
)

// senderMajorInboxes is Phase B written out literally, sender by sender:
// each sender's message is appended to every eligible receiver it
// reaches. It is the oracle phaseB is checked against: it reads the open
// round's state without changing it and returns the inboxes and the
// number of messages delivered.
func senderMajorInboxes(e *Execution) ([][]Recv, int) {
	inboxes := make([][]Recv, e.cfg.N)
	messages := 0
	for i := range e.procs {
		if e.corrupt.Get(i) {
			// Byzantine sender: per-receiver forged payloads.
			if !e.alive.Get(i) {
				continue
			}
			for j := range e.procs {
				if j == i || !e.alive.Get(j) || e.halted.Get(j) || e.corrupt.Get(j) {
					continue
				}
				if f, ok := e.forged[i]; ok && !f.Silent {
					inboxes[j] = append(inboxes[j], Recv{From: i, Payload: f.PerReceiver[j]})
					messages++
				}
			}
			continue
		}
		if !e.sending.Get(i) {
			continue
		}
		mask := e.deliver[i]
		for j := range e.procs {
			if j == i {
				continue
			}
			if mask != nil && !mask.Get(j) {
				continue
			}
			if !e.alive.Get(j) || e.halted.Get(j) || e.corrupt.Get(j) {
				continue
			}
			inboxes[j] = append(inboxes[j], Recv{From: i, Payload: e.payloads[i]})
			messages++
		}
	}
	return inboxes, messages
}

// phaseBSizes cover a single process, the smallest exchanges, and the
// BitSet word edges at 64 and 128.
var phaseBSizes = []int{1, 2, 3, 17, 64, 65, 130}

// randomMask returns nil, an empty, a random partial or a full mask
// over n receivers.
func randomMask(n int, s *rng.Stream) *BitSet {
	switch s.Intn(5) {
	case 0:
		return NewBitSet(n)
	case 1:
		m := NewBitSet(n)
		randomBits(m, s)
		return m
	case 2:
		m := NewBitSet(n)
		m.Fill()
		return m
	}
	return nil
}

// randomizeOpenRound overwrites e's open-round state with random alive,
// halted, corrupt and sending flags (each at a density drawn per call,
// so all-true and all-false vectors occur), payloads, delivery masks
// and forgery tables, and fills every inbox with stale entries.
func randomizeOpenRound(e *Execution, s *rng.Stream) {
	n := e.cfg.N
	density := func() int { return []int{0, 1, 5, 9, 10}[s.Intn(5)] }
	pAlive, pHalted, pCorrupt, pSending := density(), density(), density(), density()
	flag := func(b *BitSet, i, p int) {
		if s.Intn(10) < p {
			b.Set(i)
		} else {
			b.Clear(i)
		}
	}
	e.corrupted = 0
	e.forged = make(map[int]*Forgery)
	for i := 0; i < n; i++ {
		flag(&e.alive, i, pAlive)
		flag(&e.halted, i, pHalted)
		flag(&e.corrupt, i, pCorrupt)
		flag(&e.sending, i, pSending)
		e.payloads[i] = int64(s.Intn(2000)) - 1000
		e.deliver[i] = randomMask(n, s)
		if e.corrupt.Get(i) {
			e.corrupted++
			switch s.Intn(3) { // 0: no forgery this round
			case 1:
				e.forged[i] = &Forgery{Sender: i, Silent: true}
			case 2:
				e.forged[i] = &Forgery{Sender: i, PerReceiver: perReceiver(n, func(j int) int64 {
					return int64(s.Intn(7)) - 3
				})}
			}
		}
		e.inboxes[i] = append(e.inboxes[i][:0], Recv{From: -1, Payload: -1})
	}
}

func newQuietExecution(t *testing.T, n int) *Execution {
	t.Helper()
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = &quietProc{input: i & 1}
	}
	e, err := NewExecution(Config{N: n, T: n, FaultBudget: n}, procs, uniformInputs(n, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func diffInboxes(want [][]Recv, got *Execution) error {
	for j := range want {
		w, g := want[j], got.inboxes[j]
		if len(w) != len(g) {
			return fmt.Errorf("inbox %d has %d messages, want %d: %v vs %v", j, len(g), len(w), g, w)
		}
		for k := range w {
			if w[k] != g[k] {
				return fmt.Errorf("inbox %d message %d = %+v, want %+v", j, k, g[k], w[k])
			}
		}
	}
	return nil
}

// TestPhaseBMatchesSenderMajor checks the receiver-major Phase B against
// the sender-major oracle, inbox by inbox and on the message count.
func TestPhaseBMatchesSenderMajor(t *testing.T) {
	for _, n := range phaseBSizes {
		s := rng.New(uint64(n)*0x51ed + 7)
		e := newQuietExecution(t, n)
		for trial := 0; trial < 200; trial++ {
			randomizeOpenRound(e, s)
			want, wantMsgs := senderMajorInboxes(e)
			before := e.messages
			e.phaseB()
			if err := diffInboxes(want, e); err != nil {
				t.Fatalf("n=%d trial %d: %v", n, trial, err)
			}
			if got := e.messages - before; got != wantMsgs {
				t.Fatalf("n=%d trial %d: phaseB counted %d messages, oracle %d", n, trial, got, wantMsgs)
			}
		}
	}
}

// TestCloneIntoOpenRoundFinishes checks that a snapshot taken between
// Phase A and Phase B (whose consumed inboxes CloneInto skips) finishes
// the round exactly as the original does, into a fresh and into a
// recycled shell.
func TestCloneIntoOpenRoundFinishes(t *testing.T) {
	shell := newQuietExecution(t, 33)
	for _, n := range phaseBSizes {
		s := rng.New(uint64(n)*0x3c6e + 11)
		for trial := 0; trial < 50; trial++ {
			e := newQuietExecution(t, n)
			if _, err := e.StepPhaseA(); err != nil {
				t.Fatal(err)
			}
			randomizeOpenRound(e, s)
			e.cfg.T, e.cfg.FaultBudget = s.Intn(n+1), s.Intn(n+1)
			var plans, omissions []CrashPlan
			for k := s.Intn(4); k > 0; k-- {
				plans = append(plans, CrashPlan{Victim: s.Intn(n), Deliver: randomMask(n, s)})
				omissions = append(omissions, CrashPlan{Victim: s.Intn(n), Deliver: randomMask(n, s)})
			}
			fresh := e.CloneInto(nil)
			shell = e.CloneInto(shell)
			for _, x := range []*Execution{e, fresh, shell} {
				if err := x.FinishRoundOmitted(plans, omissions); err != nil {
					t.Fatal(err)
				}
			}
			for name, c := range map[string]*Execution{"fresh": fresh, "recycled": shell} {
				if c.messages != e.messages || c.crashed != e.crashed || c.demoted != e.demoted ||
					fmt.Sprint(c.alive) != fmt.Sprint(e.alive) {
					t.Fatalf("n=%d trial %d %s: messages/crashes/demotions %d/%d/%d, original %d/%d/%d",
						n, trial, name, c.messages, c.crashed, c.demoted, e.messages, e.crashed, e.demoted)
				}
				if err := diffInboxes(e.inboxes, c); err != nil {
					t.Fatalf("n=%d trial %d %s: %v", n, trial, name, err)
				}
			}
		}
	}
}
