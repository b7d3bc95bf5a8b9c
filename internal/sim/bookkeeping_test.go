package sim

import (
	"fmt"
	"testing"

	"synran/internal/rng"
)

// bookEvent is one OnDecide (value v) or OnHalt event.
type bookEvent struct {
	decide  bool
	r, p, v int
}

// eventLog is an Observer that records the decide and halt events.
type eventLog struct{ events []bookEvent }

func (l *eventLog) OnRound(int, *View)    {}
func (l *eventLog) OnCrash(int, int, int) {}
func (l *eventLog) OnDecide(r, p, v int)  { l.events = append(l.events, bookEvent{true, r, p, v}) }
func (l *eventLog) OnHalt(r, p int)       { l.events = append(l.events, bookEvent{false, r, p, 0}) }

// books is the state the end-of-round bookkeeping updates.
type books struct {
	halted, seen           BitSet
	decideRound, haltRound int
}

func booksOf(e *Execution) books {
	b := books{decideRound: e.decideRound, haltRound: e.haltRound}
	b.halted.CopyFrom(&e.halted)
	b.seen.CopyFrom(&e.decidedSeen)
	return b
}

// perProcessBookkeeping is round r's bookkeeping written out process by
// process, asking each live process for its Decided and Stopped answers
// at the end of the round. It is the oracle finishBookkeeping is checked
// against: it reads e's processes and its alive and corrupt columns,
// which bookkeeping does not change, starts from the books b held
// before the round, and returns the books after it and the events an
// observer hears.
func perProcessBookkeeping(e *Execution, b books, r int) (books, []bookEvent) {
	var events []bookEvent
	allDecided, anyActive := true, false
	for i, p := range e.procs {
		if !e.alive.Get(i) || e.corrupt.Get(i) {
			continue
		}
		if v, ok := p.Decided(); !ok {
			allDecided = false
		} else if !b.seen.Get(i) {
			b.seen.Set(i)
			events = append(events, bookEvent{true, r, i, v})
		}
		if !b.halted.Get(i) && p.Stopped() {
			b.halted.Set(i)
			events = append(events, bookEvent{false, r, i, 0})
		}
		if !b.halted.Get(i) {
			anyActive = true
		}
	}
	if b.decideRound == 0 && allDecided {
		b.decideRound = r
	}
	if b.haltRound == 0 && !anyActive {
		b.haltRound = r
	}
	return b, events
}

// diffBooks describes the first difference between two books.
func diffBooks(got, want *books) error {
	if got.decideRound != want.decideRound || got.haltRound != want.haltRound {
		return fmt.Errorf("decide/halt rounds %d/%d, oracle %d/%d",
			got.decideRound, got.haltRound, want.decideRound, want.haltRound)
	}
	for k := range want.halted.words {
		if got.halted.words[k] != want.halted.words[k] || got.seen.words[k] != want.seen.words[k] {
			return fmt.Errorf("word %d: halted %#x decidedSeen %#x, oracle %#x %#x",
				k, got.halted.words[k], got.seen.words[k], want.halted.words[k], want.seen.words[k])
		}
	}
	return nil
}

// TestBookkeepingMatchesPerProcessOracle drives scripted processes that
// decide before they halt, as they halt, or never, through random crash,
// omission and forgery plans, with and without an observer, and checks
// every round's word-wise bookkeeping against the per-process oracle:
// the same events in the same order, the same halted and decidedSeen
// words, and the same decide and halt rounds.
func TestBookkeepingMatchesPerProcessOracle(t *testing.T) {
	var early, atHalt, undecided, decideRounds int
	for _, n := range []int{1, 63, 64, 65, 130} {
		for _, observed := range []bool{false, true} {
			s := rng.New(uint64(n)*0x9d + 13)
			for trial := 0; trial < 12; trial++ {
				procs := make([]Process, n)
				for i := range procs {
					p := &staggerProc{id: i, input: s.Intn(2), haltAt: 1 + s.Intn(8)}
					switch s.Intn(3) {
					case 0:
						p.decideAt = 1 + s.Intn(p.haltAt)
					case 1:
						p.decideAt = p.haltAt
					default:
						if trial%2 == 0 { // half the trials have no undecided halts
							p.decideAt = p.haltAt
						}
					}
					procs[i] = p
				}
				var log eventLog
				cfg := Config{N: n, T: n, FaultBudget: n / 2}
				if observed {
					cfg.Observer = &log
				}
				e, err := NewExecution(cfg, procs, uniformInputs(n, 0), 9)
				if err != nil {
					t.Fatal(err)
				}
				for !e.Done() {
					if _, err := e.StepPhaseA(); err != nil {
						t.Fatal(err)
					}
					r, before, from := e.round+1, booksOf(e), len(log.events)
					if err := e.finish(randomPlan(n, s)); err != nil {
						t.Fatal(err)
					}
					want, wantEvents := perProcessBookkeeping(e, before, r)
					got := booksOf(e)
					if err := diffBooks(&got, &want); err != nil {
						t.Fatalf("n=%d observed=%v trial %d round %d: %v", n, observed, trial, r, err)
					}
					if !observed {
						continue
					}
					gotEvents := log.events[from:]
					if fmt.Sprint(gotEvents) != fmt.Sprint(wantEvents) {
						t.Fatalf("n=%d trial %d round %d: events %v, oracle %v", n, trial, r, gotEvents, wantEvents)
					}
					for _, ev := range gotEvents {
						switch p := procs[ev.p].(*staggerProc); {
						case !ev.decide && p.decideAt == 0:
							undecided++
						case ev.decide && p.decideAt < p.haltAt:
							early++
						case ev.decide:
							atHalt++
						}
					}
				}
				if e.decideRound != 0 {
					decideRounds++
				}
			}
		}
	}
	if early < 100 || atHalt < 100 || undecided < 100 || decideRounds < 20 {
		t.Fatalf("%d early decisions, %d at halting, %d undecided halts, %d decided runs: the drive exercised too little",
			early, atHalt, undecided, decideRounds)
	}
}
