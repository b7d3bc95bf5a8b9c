package adversary

import (
	"testing"

	"synran/internal/rng"
	"synran/internal/sim"
	"synran/internal/wire"
)

// viewFor builds a synthetic adversary view with the given sender
// payload vector (all processes alive, sending, and uncorrupted).
func viewFor(payloads []int64, budget int, seed uint64) *sim.View {
	n := len(payloads)
	alive, sending := sim.NewBitSet(n), sim.NewBitSet(n)
	alive.Fill()
	sending.Fill()
	return sim.NewView(sim.ViewState{
		Round:    1,
		N:        n,
		T:        budget,
		Budget:   budget,
		Alive:    alive,
		Halted:   sim.NewBitSet(n),
		Corrupt:  sim.NewBitSet(n),
		Sending:  sending,
		Payloads: payloads,
		Rng:      rng.New(seed),
	})
}

func bitsPayloads(ones, zeros int) []int64 {
	out := make([]int64, 0, ones+zeros)
	for i := 0; i < ones; i++ {
		out = append(out, wire.Plain(1))
	}
	for i := 0; i < zeros; i++ {
		out = append(out, wire.Plain(0))
	}
	return out
}

func TestNoneNeverCrashes(t *testing.T) {
	v := viewFor(bitsPayloads(5, 5), 10, 1)
	if plans := (None{}).Plan(v); plans != nil {
		t.Fatalf("None planned %v", plans)
	}
	if None.Name(None{}) != "none" {
		t.Fatal("unexpected name")
	}
}

func TestScheduleReplaysAndClones(t *testing.T) {
	mask := sim.NewBitSet(4)
	mask.Set(1)
	s := &Schedule{Plans: map[int][]sim.CrashPlan{
		2: {{Victim: 0, Deliver: mask}},
	}}
	v := viewFor(bitsPayloads(2, 2), 4, 1)
	if plans := s.Plan(v); len(plans) != 0 {
		t.Fatalf("round 1 plans = %v, want none", plans)
	}
	v.Round = 2
	plans := s.Plan(v)
	if len(plans) != 1 || plans[0].Victim != 0 {
		t.Fatalf("round 2 plans = %v", plans)
	}

	c := s.Clone().(*Schedule)
	c.Plans[2][0].Deliver.Set(3)
	if s.Plans[2][0].Deliver.Get(3) {
		t.Fatal("clone shares delivery masks with the original")
	}
}

func TestRandomRespectsBudget(t *testing.T) {
	v := viewFor(bitsPayloads(4, 4), 2, 7)
	a := &Random{PerRound: 1.0, MaxPerRound: 10}
	plans := a.Plan(v)
	if len(plans) > 2 {
		t.Fatalf("planned %d crashes with budget 2", len(plans))
	}
	for i, p := range plans {
		for j := 0; j < i; j++ {
			if plans[j].Victim == p.Victim {
				t.Fatalf("duplicate victim %d", p.Victim)
			}
		}
	}
}

func TestRandomZeroProbabilityIsQuiet(t *testing.T) {
	v := viewFor(bitsPayloads(4, 4), 8, 7)
	a := &Random{PerRound: 0.0000001, MaxPerRound: 1}
	quiet := 0
	for i := 0; i < 50; i++ {
		if len(a.Plan(v)) == 0 {
			quiet++
		}
	}
	if quiet < 45 {
		t.Fatalf("near-zero crash probability produced %d quiet rounds of 50", quiet)
	}
}

func TestMassCrashPrefersValue(t *testing.T) {
	payloads := bitsPayloads(6, 4) // ids 0..5 send 1, ids 6..9 send 0
	v := viewFor(payloads, 10, 1)
	a := &MassCrash{AtRound: 1, Fraction: 0.5, PreferValue: 1}
	plans := a.Plan(v)
	if len(plans) != 5 {
		t.Fatalf("planned %d crashes, want 5 (=0.5*10)", len(plans))
	}
	for _, p := range plans {
		if p.Victim >= 6 {
			t.Fatalf("victim %d is a 0-sender; 1-senders must be exhausted first", p.Victim)
		}
	}
	v.Round = 2
	if plans := a.Plan(v); plans != nil {
		t.Fatalf("MassCrash fired outside its round: %v", plans)
	}
}

func TestMassCrashFallsBackToAnyAlive(t *testing.T) {
	payloads := bitsPayloads(2, 8)
	v := viewFor(payloads, 10, 1)
	a := &MassCrash{AtRound: 1, Fraction: 0.5, PreferValue: 1}
	plans := a.Plan(v)
	if len(plans) != 5 {
		t.Fatalf("planned %d crashes, want 5", len(plans))
	}
}

func TestSplitVoteTrimsOvershoot(t *testing.T) {
	// 10 senders, all bases = 10 (first round): band top = 6. With 9 ones
	// the adversary must crash 3 one-senders.
	a := &SplitVote{DisableSplit: true}
	v := viewFor(bitsPayloads(9, 1), 10, 1)
	plans := a.Plan(v)
	if len(plans) != 3 {
		t.Fatalf("planned %d crashes, want 3 (trim 9 ones to band top 6)", len(plans))
	}
	for _, p := range plans {
		if v.Payload(p.Victim)&1 != 1 {
			t.Fatalf("victim %d is not a 1-sender", p.Victim)
		}
		if p.Deliver != nil {
			t.Fatal("trim crashes must deliver to no one when splitting is off")
		}
	}
}

func TestSplitVoteSplitLeverAddsMask(t *testing.T) {
	a := &SplitVote{SplitFraction: 0.3}
	v := viewFor(bitsPayloads(9, 1), 10, 1)
	plans := a.Plan(v)
	if len(plans) != 3 {
		t.Fatalf("planned %d crashes, want 3", len(plans))
	}
	last := plans[len(plans)-1]
	if last.Deliver == nil {
		t.Fatal("split lever must deliver the last trimmed 1 to a group")
	}
	if got := last.Deliver.Count(); got != 3 {
		t.Fatalf("split group size = %d, want 3 (=0.3*10)", got)
	}
}

func TestSplitVoteRescuesZeroSweep(t *testing.T) {
	// Ones well below the band: 2 of 10 with base 10 (band bottom 5).
	a := &SplitVote{}
	v := viewFor(bitsPayloads(2, 8), 10, 1)
	plans := a.Plan(v)
	if len(plans) != 8 {
		t.Fatalf("planned %d crashes, want all 8 zero-senders", len(plans))
	}
	for _, p := range plans {
		if v.Payload(p.Victim)&1 != 0 {
			t.Fatalf("victim %d is not a 0-sender", p.Victim)
		}
		if p.Deliver == nil {
			t.Fatal("rescue must deliver zeros to the seen half")
		}
		// Survivors are the 2 one-senders; the seen half is 1 of them,
		// and every crashed zero-sender must be blind to the zeros.
		if got := p.Deliver.Count(); got != 1 {
			t.Fatalf("seen survivor half size = %d, want 1", got)
		}
		for _, z := range plans {
			if p.Deliver.Get(z.Victim) {
				t.Fatalf("rescue delivered zeros to the dying process %d", z.Victim)
			}
		}
	}
}

func TestSplitVoteRescueTooExpensive(t *testing.T) {
	a := &SplitVote{}
	v := viewFor(bitsPayloads(2, 8), 3, 1) // budget below the 8 zero-senders
	if plans := a.Plan(v); len(plans) != 0 {
		t.Fatalf("rescue attempted beyond budget: %v", plans)
	}
}

func TestSplitVoteIgnoresFloodStage(t *testing.T) {
	a := &SplitVote{}
	payloads := []int64{wire.Flood(wire.MaskOne), wire.Plain(1), wire.Plain(0)}
	v := viewFor(payloads, 3, 1)
	if plans := a.Plan(v); plans != nil {
		t.Fatalf("split-vote attacked the deterministic stage: %v", plans)
	}
}

func TestSplitVoteInBandIsQuiet(t *testing.T) {
	a := &SplitVote{}
	// 5 ones of 10 with base 10: exactly at the band bottom; no lever fires.
	v := viewFor(bitsPayloads(5, 5), 10, 1)
	if plans := a.Plan(v); len(plans) != 0 {
		t.Fatalf("in-band round attacked: %v", plans)
	}
}

func TestSplitVoteCloneIndependent(t *testing.T) {
	a := &SplitVote{}
	v := viewFor(bitsPayloads(9, 1), 10, 1)
	a.Plan(v) // initializes bases
	c := a.Clone().(*SplitVote)
	c.bases[0] = -99
	if a.bases[0] == -99 {
		t.Fatal("clone shares base tracking with original")
	}
}

func TestSplitVoteBaseTracking(t *testing.T) {
	a := &SplitVote{DisableSplit: true}
	v := viewFor(bitsPayloads(9, 1), 10, 1)
	plans := a.Plan(v) // trims 3 silently: every receiver now has N = 7
	if len(plans) != 3 {
		t.Fatalf("setup failed: %d plans", len(plans))
	}
	for j := 0; j < v.N; j++ {
		victim := false
		for _, p := range plans {
			if p.Victim == j {
				victim = true
			}
		}
		if victim {
			continue
		}
		if a.bases[j] != 7 {
			t.Fatalf("receiver %d base = %d, want 7 (10 senders - 3 hidden)", j, a.bases[j])
		}
	}
}
