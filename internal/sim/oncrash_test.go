package sim_test

import (
	"fmt"
	"testing"

	"synran/internal/protocol/floodset"
	"synran/internal/sim"
)

// crashLog records each OnCrash event.
type crashLog struct{ events []string }

func (l *crashLog) OnRound(int, *sim.View) {}
func (l *crashLog) OnCrash(r, victim, delivered int) {
	l.events = append(l.events, fmt.Sprintf("round %d: p%d reached %d", r, victim, delivered))
}
func (l *crashLog) OnDecide(int, int, int) {}
func (l *crashLog) OnHalt(int, int)        {}

// scripted replays a fixed per-round crash schedule.
type scripted map[int][]sim.CrashPlan

func (s scripted) Name() string                     { return "scripted" }
func (s scripted) Plan(v *sim.View) []sim.CrashPlan { return s[v.Round] }
func (s scripted) Clone() sim.Adversary             { return s }

// TestOnCrashReportsDeliveredCount pins the delivered count OnCrash
// reports, on both cores: a sending victim reports how many receivers
// its mask names, and a victim that sends nothing reports 0 whatever
// its mask. FloodSet at t = 2 floods in rounds 1–3 and sends nothing
// in round 4, where it decides and stops.
func TestOnCrashReportsDeliveredCount(t *testing.T) {
	const n, tt = 5, 2
	inputs := []int{0, 1, 0, 1, 1}
	some := sim.NewBitSet(n)
	some.Set(1)
	some.Set(3)
	all := sim.NewBitSet(n)
	all.Fill()
	adv := scripted{
		1: {{Victim: 0, Deliver: some}},
		4: {{Victim: 2, Deliver: all}},
	}
	want := []string{"round 1: p0 reached 2", "round 4: p2 reached 0"}
	for _, engine := range []string{sim.EngineSoA, sim.EngineObject} {
		procs, err := floodset.NewProcs(n, tt, inputs)
		if err != nil {
			t.Fatal(err)
		}
		log := &crashLog{}
		e, err := sim.NewExecution(sim.Config{N: n, T: tt, Engine: engine, Observer: log}, procs, inputs, 1)
		if err != nil {
			t.Fatal(err)
		}
		if e.Columnar() != (engine == sim.EngineSoA) {
			t.Fatalf("engine %q: columnar = %v", engine, e.Columnar())
		}
		if _, err := e.Run(adv); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(log.events) != fmt.Sprint(want) {
			t.Errorf("engine %q: crash events %q, want %q", engine, log.events, want)
		}
	}
}
