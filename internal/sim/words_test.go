package sim

import (
	"math/bits"
	"testing"

	"synran/internal/rng"
)

// staggerProc sends its input except every third round (offset by its
// id), decides its input at its own round decideAt (never when 0) and
// halts at its own round haltAt, so the flag columns hold mixed patterns
// that thin out across words.
type staggerProc struct{ id, input, decideAt, haltAt, r int }

func (p *staggerProc) Round(r int, _ []Recv) (int64, bool) {
	p.r = r
	return int64(p.input), (r+p.id)%3 != 0
}
func (p *staggerProc) Decided() (int, bool) { return p.input, p.decideAt > 0 && p.r >= p.decideAt }
func (p *staggerProc) Stopped() bool        { return p.r >= p.haltAt }
func (p *staggerProc) Clone() Process       { c := *p; return &c }

// randomPlan draws one round's adversary plan over n processes: a few
// crash and omission plans with random delivery masks, and now and then
// a silent forgery.
func randomPlan(n int, s *rng.Stream) RoundPlan {
	var p RoundPlan
	for k := s.Intn(n/8 + 2); k > 0; k-- {
		p.Crashes = append(p.Crashes, CrashPlan{Victim: s.Intn(n), Deliver: randomMask(n, s)})
		p.Omissions = append(p.Omissions, CrashPlan{Victim: s.Intn(n), Deliver: randomMask(n, s)})
	}
	if s.Intn(6) == 0 {
		p.Forgeries = append(p.Forgeries, Forgery{Sender: s.Intn(n), Silent: true})
	}
	return p
}

// checkViewWords compares every word accessor of v with the per-process
// accessors it packs, including the bits past N, which must read clear.
func checkViewWords(t *testing.T, v *View) {
	t.Helper()
	if v.Words() != (v.N+63)/64 {
		t.Fatalf("n=%d: Words() = %d", v.N, v.Words())
	}
	alive := 0
	for k := 0; k < v.Words(); k++ {
		a, h, s, l := v.AliveWord(k), v.HaltedWord(k), v.SendingWord(k), v.LiveWord(k)
		alive += bits.OnesCount64(a)
		for b := 0; b < 64; b++ {
			i := k<<6 | b
			in := i < v.N
			got := func(w uint64) bool { return w&(1<<uint(b)) != 0 }
			if got(a) != (in && v.IsAlive(i)) || got(h) != (in && v.IsHalted(i)) ||
				got(s) != (in && v.IsSending(i)) || got(l) != (in && v.IsAlive(i) && !v.IsHalted(i)) {
				t.Fatalf("n=%d round %d process %d: words alive/halted/sending/live %v/%v/%v/%v disagree with the per-process accessors",
					v.N, v.Round, i, got(a), got(h), got(s), got(l))
			}
		}
	}
	if v.AliveCount() != alive {
		t.Fatalf("n=%d round %d: AliveCount %d, alive words hold %d", v.N, v.Round, v.AliveCount(), alive)
	}
}

// TestViewWordAccessors checks the View's word accessors against its
// per-process accessors on synthetic views, with each column present or
// nil (NewView's all-false reading), at the word-edge sizes.
func TestViewWordAccessors(t *testing.T) {
	for _, n := range propSizes {
		s := rng.New(uint64(n)*0x7f4a + 3)
		for trial := 0; trial < 32; trial++ {
			column := func() *BitSet {
				if s.Intn(4) == 0 {
					return nil
				}
				b := NewBitSet(n)
				randomBits(b, s)
				return b
			}
			checkViewWords(t, NewView(ViewState{Round: trial, N: n, Alive: column(), Halted: column(),
				Corrupt: column(), Sending: column()}))
		}
	}
}

// checkTrimmed fails if any flag column holds a bit at or past n:
// AliveCount's popcount and every word loop rely on the clear tail.
func checkTrimmed(t *testing.T, when string, e *Execution) {
	t.Helper()
	n := e.cfg.N
	for name, b := range map[string]*BitSet{"alive": &e.alive, "halted": &e.halted, "corrupt": &e.corrupt,
		"decided": &e.decided, "stopped": &e.stopped, "decidedSeen": &e.decidedSeen, "sending": &e.sending,
		"act": &e.act} {
		if b.Len() != n || b.Words() != (n+63)/64 {
			t.Fatalf("n=%d %s: %s has Len %d over %d words", n, when, name, b.Len(), b.Words())
		}
		if rem := n & 63; rem != 0 && b.Word(b.Words()-1)>>uint(rem) != 0 {
			t.Fatalf("n=%d %s: %s has bits past N: %#x", n, when, name, b.Word(b.Words()-1))
		}
	}
}

// TestFlagColumnsStayTrimmed drives executions through random crashes,
// omissions, forgeries and staggered halts, reusing one Execution and
// one clone shell across shrinking and growing sizes, and checks after
// Reset, every round and every CloneInto that no flag column holds a bit
// at or past N, checking every round's engine view on the way.
func TestFlagColumnsStayTrimmed(t *testing.T) {
	var e, shell Execution
	rounds, crashes, halts := 0, 0, 0
	for _, n := range []int{129, 65, 1, 128, 63, 127, 64} {
		s := rng.New(uint64(n)*0x2b + 5)
		procs := make([]Process, n)
		for i := range procs {
			haltAt := 2 + s.Intn(8)
			procs[i] = &staggerProc{id: i, input: i & 1, decideAt: haltAt, haltAt: haltAt}
		}
		if err := e.Reset(Config{N: n, T: n, FaultBudget: n / 2, Observer: &CrashHistogram{}}, procs, uniformInputs(n, 0), 9); err != nil {
			t.Fatal(err)
		}
		checkTrimmed(t, "after Reset", &e)
		for !e.Done() {
			v, err := e.StepPhaseA()
			if err != nil {
				t.Fatal(err)
			}
			checkViewWords(t, v)
			rounds++
			p := randomPlan(n, s)
			e.CloneInto(&shell)
			checkTrimmed(t, "after an open-round CloneInto", &shell)
			if err := e.finish(p); err != nil {
				t.Fatal(err)
			}
			checkTrimmed(t, "after a round", &e)
		}
		e.CloneInto(&shell)
		checkTrimmed(t, "after CloneInto", &shell)
		crashes, halts = crashes+e.crashed, halts+e.halted.Count()
	}
	if rounds < 20 || crashes < 20 || halts < 20 {
		t.Fatalf("%d rounds, %d crashes, %d halts: the drive exercised too little", rounds, crashes, halts)
	}
}
