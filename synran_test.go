package synran

import (
	"testing"

	"synran/internal/sim"
)

func TestFacadeRunDefaults(t *testing.T) {
	res, err := Run(Spec{N: 16, T: 0, Inputs: UniformInputs(16, 1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement || !res.Validity || res.DecidedValue() != 1 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestFacadeProtocolsAndAdversaries(t *testing.T) {
	protocols := []string{ProtocolSynRan, ProtocolBenOr, ProtocolFloodSet, ProtocolLeaderCoin, ProtocolEarlyStop}
	adversaries := []string{AdversaryNone, AdversaryRandom, AdversarySplitVote, AdversaryPush0, AdversaryPush1}
	for _, p := range protocols {
		for _, a := range adversaries {
			res, err := Run(Spec{
				N: 12, T: 4, Inputs: HalfHalfInputs(12),
				Protocol: p, Adversary: a, Seed: 9,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", p, a, err)
			}
			if !res.Agreement {
				t.Fatalf("%s/%s: agreement violated", p, a)
			}
		}
	}
}

func TestFacadePhaseKingEquivocator(t *testing.T) {
	// Phase King needs n > 4t; pair it with the Byzantine adversary.
	res, err := Run(Spec{
		N: 13, T: 3, Inputs: HalfHalfInputs(13),
		Protocol: ProtocolPhaseKing, Adversary: AdversaryEquivocator, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement || !res.Validity {
		t.Fatalf("agreement=%v validity=%v", res.Agreement, res.Validity)
	}
	if res.Survivors != 10 {
		t.Fatalf("survivors = %d, want 10 correct processes", res.Survivors)
	}
}

func TestFacadeChaosRejectsEquivocator(t *testing.T) {
	_, err := Run(Spec{
		N: 13, T: 3, Inputs: HalfHalfInputs(13),
		Protocol: ProtocolPhaseKing, Adversary: AdversaryEquivocator, Seed: 4,
		Chaos: &ChaosConfig{},
	})
	if err == nil {
		t.Fatal("lossy links must reject the Byzantine adversary")
	}
}

// TestFacadeChaosRunner runs lossy links under a crashing adversary on
// both engine cores: the runs must agree, stay safe and demote within
// the fault budget.
func TestFacadeChaosRunner(t *testing.T) {
	var digests [2]string
	for i, engine := range []string{"", "object"} {
		d := sim.NewDigest()
		res, err := Run(Spec{
			N: 16, T: 8, Inputs: HalfHalfInputs(16),
			Adversary: AdversaryRandom, Seed: 3, Engine: engine,
			Chaos: &ChaosConfig{Drop: 0.2}, FaultBudget: 3, Observer: d,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Agreement || !res.Validity {
			t.Fatalf("engine %q: chaos run unsafe", engine)
		}
		if res.Faults.Demoted == 0 || res.Faults.Demoted > 3 {
			t.Fatalf("engine %q: %d demotions, want 1..3", engine, res.Faults.Demoted)
		}
		digests[i] = d.String()
	}
	if digests[0] != digests[1] {
		t.Fatalf("cores disagree under lossy links: %s vs %s", digests[0], digests[1])
	}
}

func TestFacadeLowerBoundAdversary(t *testing.T) {
	if testing.Short() {
		t.Skip("look-ahead adversary is expensive")
	}
	res, err := Run(Spec{
		N: 8, T: 7, Inputs: HalfHalfInputs(8),
		Adversary: AdversaryLowerBound, Seed: 5, MaxRounds: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Agreement || !res.Validity {
		t.Fatal("lower-bound adversary broke safety")
	}
}

func TestFacadeUnknownNames(t *testing.T) {
	if _, err := Run(Spec{N: 4, T: 0, Inputs: UniformInputs(4, 0), Protocol: "bogus"}); err == nil {
		t.Fatal("unknown protocol must error")
	}
	if _, err := Run(Spec{N: 4, T: 0, Inputs: UniformInputs(4, 0), Adversary: "bogus"}); err == nil {
		t.Fatal("unknown adversary must error")
	}
}

func TestFacadeBounds(t *testing.T) {
	if UpperBoundRounds(1024, 1023) <= 0 || LowerBoundRounds(1024, 1023) <= 0 {
		t.Fatal("bounds must be positive for t = n-1")
	}
	if DetThreshold(1024) <= 0 {
		t.Fatal("DetThreshold must be positive")
	}
}
