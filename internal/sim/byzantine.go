package sim

// Byzantine extension of the fail-stop engine. The paper's own model is
// fail-stop, but its introduction contrasts it with Byzantine agreement
// ("efficient t+1 round agreement protocols are known even for Byzantine
// adversaries [GM93]"); internal/protocol/phaseking and experiment E14
// reproduce that context. A Byzantine adversary CORRUPTS processes: a
// corrupted process's honest state machine is frozen and the adversary
// supplies its outgoing payloads each round, per receiver (equivocation).
// Corruptions draw from the same budget T as crashes. Corrupt processes
// are faulty: they are excluded from agreement, validity, and
// termination accounting, exactly like crashed ones.

// Forgery dictates what one corrupted process sends this round.
// PerReceiver[j] is the payload delivered to process j; Silent marks a
// round in which the corrupt process sends nothing.
type Forgery struct {
	Sender      int
	PerReceiver []int64
	Silent      bool
}

// Forger is the optional adversary extension for Byzantine behaviour.
// Dispatch detects it; the lock-step engine is the only runner that
// applies forgeries (the netsim runner fails with netsim.ErrForgery).
type Forger interface {
	// Forge is invoked once per round after Phase A, alongside Plan. The
	// first forgery naming a process corrupts it (spending one unit of
	// the T budget); a corrupt process with no forgery this round stays
	// silent.
	Forge(v *View) []Forgery
}

// Corrupt reports whether process p has been corrupted.
func (e *Execution) Corrupt(p int) bool { return e.corrupt.Get(p) }

// CorruptCount returns the number of corrupted processes.
func (e *Execution) CorruptCount() int { return e.corrupted }

// applyForgeries corrupts new victims (budget permitting) and records
// this round's forged payload tables. Invalid forgeries (bad sender,
// crashed sender, malformed table, budget exhausted) are skipped.
func (e *Execution) applyForgeries(forgeries []Forgery) {
	if e.forged == nil {
		e.forged = make(map[int]*Forgery)
	}
	for i := range forgeries {
		f := forgeries[i]
		v := f.Sender
		if v < 0 || v >= e.cfg.N || !e.alive.Get(v) {
			continue
		}
		if !f.Silent && len(f.PerReceiver) != e.cfg.N {
			continue
		}
		if !e.corrupt.Get(v) {
			if e.crashed+e.corrupted >= e.cfg.T {
				continue
			}
			e.corrupt.Set(v)
			e.corrupted++
		}
		e.forged[v] = &f
	}
}

// FinishRoundForged is FinishRound plus Byzantine forgeries, which are
// applied before the crash plans.
func (e *Execution) FinishRoundForged(plans []CrashPlan, forgeries []Forgery) error {
	return e.finish(RoundPlan{Crashes: plans, Forgeries: forgeries})
}
