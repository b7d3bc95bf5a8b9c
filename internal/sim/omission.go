package sim

// Adaptive-omission extension of the fail-stop engine. The paper's model
// is fail-stop, but Hajiaghayi–Kowalski–Olkowski (arXiv 2405.04762)
// analyze consensus under an adversary that silences links instead of
// crashing processes. The engine models the unrecoverable case: an
// omission victim's outgoing links go silent from the current round on
// (with CrashPlan-style partial delivery of its in-flight message), so
// it is send-omission faulty — indistinguishable from a crash to every
// receiver — and is demoted, charged against Config.FaultBudget rather
// than the adversary's crash budget T, keeping the two fault ledgers
// (Crashes vs Faults.Demoted) separate. Lossy links (internal/chaos)
// are one more Omitter on the same ledger.

// Omitter is the optional adversary extension for adaptive omissions.
// Dispatch detects it; Omit is invoked once per round after Phase A,
// alongside Plan, and its plans are applied after Plan's crashes under
// the fault budget.
type Omitter interface {
	Adversary
	// Omit returns this round's omission plans: each victim's outgoing
	// links are silenced from this round on, Deliver selecting which
	// receivers still get its in-flight message. Plans beyond the fault
	// budget, or naming dead or repeated victims, are skipped
	// deterministically.
	Omit(v *View) []CrashPlan
}

// FaultBudgetLeft returns the omission demotions the execution may
// still absorb under Config.FaultBudget. Read-only value; omission
// adversaries use it the way crash adversaries use View.Budget.
func (e *Execution) FaultBudgetLeft() int {
	left := e.cfg.FaultBudget - e.demoted
	if left < 0 {
		return 0
	}
	return left
}
