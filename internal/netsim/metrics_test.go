package netsim

import (
	"testing"

	"synran/internal/adversary"
	"synran/internal/chaos"
	"synran/internal/metrics"
	"synran/internal/protocol/floodset"
	"synran/internal/sim"
)

// TestChaosMetricsMatchFaultAccounting pins the contract between the
// metrics layer and the runner's own fault accounting: every emission
// site sits next to its Faults increment, so the merged counters must
// equal the Result's Faults field for field. This is the cross-check
// that keeps the observability layer honest — a drifted counter means
// an emission site moved away from its bookkeeping.
func TestChaosMetricsMatchFaultAccounting(t *testing.T) {
	const n = 9
	inputs := halfInputs(n)
	eng := metrics.NewEngine(metrics.New(1))
	procs, err := floodset.NewProcs(n, 3, inputs)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Injector: mustInjector(t, 17, chaos.Config{Drop: 0.2}), FaultBudget: 3}
	res, err := RunChaos(sim.Config{N: n, T: 3, Metrics: eng}, procs, inputs,
		adversary.None{}, 17, opts)
	if err != nil {
		t.Fatal(err)
	}

	f := res.Faults
	for _, c := range []struct {
		name string
		got  uint64
		want int
	}{
		{"messages_dropped", eng.MsgDropped.Value(), f.Dropped},
		{"proc_demotions", eng.Demotions.Value(), f.Demoted},
		{"messages_delivered", eng.Messages.Value(), res.Messages},
	} {
		if c.got != uint64(c.want) {
			t.Errorf("%s = %d, want %d (Faults accounting %+v)", c.name, c.got, c.want, f)
		}
	}
	if f.Dropped == 0 || f.Demoted == 0 {
		t.Fatalf("the injector dropped %d and demoted %d — the cross-check is vacuous", f.Dropped, f.Demoted)
	}

	// The engine-side instruments must agree with the Result too.
	if got := eng.Rounds.Value(); got != uint64(res.HaltRounds) {
		t.Errorf("engine_rounds = %d, want HaltRounds %d", got, res.HaltRounds)
	}
	decided := 0
	for _, ok := range res.Decided {
		if ok {
			decided++
		}
	}
	if got := eng.Decisions.Value(); got != uint64(decided) {
		t.Errorf("process_decisions = %d, want %d", got, decided)
	}
	if got := eng.CrashesAdversary.Value(); got != 0 {
		t.Errorf("crashes_adversary = %d under adversary.None", got)
	}
	// Retransmissions have no Faults counterpart; each one follows a
	// dropped attempt, so the count is bounded by the drops.
	if got := eng.MsgRetransmitted.Value(); got == 0 || got > uint64(f.Dropped) {
		t.Errorf("messages_retransmitted = %d, want in (0, dropped = %d]", got, f.Dropped)
	}
}
