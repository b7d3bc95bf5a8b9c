package core

import (
	"testing"

	"synran/internal/sim"
	"synran/internal/wire"
)

// mkInbox builds an inbox with the given number of one- and zero-valued
// plain messages from distinct senders (ids from 1 upward).
func mkInbox(ones, zeros int) []sim.Recv {
	inbox := make([]sim.Recv, 0, ones+zeros)
	id := 1
	for i := 0; i < ones; i++ {
		inbox = append(inbox, sim.Recv{From: id, Payload: wire.Plain(1)})
		id++
	}
	for i := 0; i < zeros; i++ {
		inbox = append(inbox, sim.Recv{From: id, Payload: wire.Plain(0)})
		id++
	}
	return inbox
}

// stepProc runs one probabilistic round on a fresh process with the
// given own bit and inbox, and reports the resulting b and decided flag.
func stepProc(t *testing.T, n, own int, inbox []sim.Recv, opts Options) *Proc {
	t.Helper()
	p, err := NewProc(0, n, own, newTestStream(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, send := p.Round(1, nil); !send {
		t.Fatal("round 1 must send")
	}
	p.Round(2, inbox)
	return p
}

// The pseudocode cascade, exercised branch by branch at n = 20
// (N' = N^0 = 20 for round 1 messages, so thresholds are 14, 12, 8, 10).
func TestCascadeDecideOne(t *testing.T) {
	// O = 15 > 7·20/10 = 14 → b = 1, decided.
	p := stepProc(t, 20, 1, mkInbox(14, 5), Options{})
	if p.B() != 1 || !p.TentativelyDecided() {
		t.Fatalf("b=%d decided=%v, want 1/true", p.B(), p.TentativelyDecided())
	}
}

func TestCascadeProposeOne(t *testing.T) {
	// O = 13: 12 < 10·O/10 ≤ 14 → b = 1, not decided.
	p := stepProc(t, 20, 1, mkInbox(12, 7), Options{})
	if p.B() != 1 || p.TentativelyDecided() {
		t.Fatalf("b=%d decided=%v, want 1/false", p.B(), p.TentativelyDecided())
	}
}

func TestCascadeOneSideBias(t *testing.T) {
	// O = 8, Z = 0: below the propose-1 threshold but the Z = 0 rule
	// forces b = 1. (All messages are ones but few of them.)
	p := stepProc(t, 20, 1, mkInbox(7, 0), Options{})
	if p.B() != 1 {
		t.Fatalf("Z=0 must force b=1, got %d", p.B())
	}
	if p.TentativelyDecided() {
		t.Fatal("the bias rule must not set the decided flag")
	}
	// The same inbox without the rule (symmetric ablation): O = 8 < 8?
	// 10·8 = 80 exactly equals 4·20 = 80, so not decide-0; 80 < 5·20 →
	// propose 0.
	p = stepProc(t, 20, 1, mkInbox(7, 0), Options{SymmetricCoin: true})
	if p.B() != 0 {
		t.Fatalf("symmetric variant must propose 0, got %d", p.B())
	}
}

func TestCascadeDecideZero(t *testing.T) {
	// O = 7 < 4·20/10 = 8, Z > 0 → b = 0, decided.
	p := stepProc(t, 20, 0, mkInbox(7, 12), Options{})
	if p.B() != 0 || !p.TentativelyDecided() {
		t.Fatalf("b=%d decided=%v, want 0/true", p.B(), p.TentativelyDecided())
	}
}

func TestCascadeProposeZero(t *testing.T) {
	// O = 9: 8 ≤ 10·O/10 < 10 → b = 0, not decided.
	p := stepProc(t, 20, 0, mkInbox(9, 10), Options{})
	if p.B() != 0 || p.TentativelyDecided() {
		t.Fatalf("b=%d decided=%v, want 0/false", p.B(), p.TentativelyDecided())
	}
}

// TestCascadeTies pins each threshold's strictness at n = 20, where
// N' = 20 puts 7/10, 6/10, 5/10 and 4/10 on whole counts of ones (14,
// 12, 10 and 8): a count on a threshold falls through to the next
// branch.
func TestCascadeTies(t *testing.T) {
	for _, c := range []struct {
		ones    int // O, own 1 included, of N = 20
		b       int // -1: the coin decides
		decided bool
	}{
		{14, 1, false},  // not above 7/10: propose 1
		{12, -1, false}, // not above 6/10: the coin band
		{10, -1, false}, // not below 5/10: the coin band
		{8, 0, false},   // not below 4/10: propose 0
	} {
		p, err := NewProc(0, 20, 1, newTestStream(1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		flipped := false
		p.SetFlip(func() int { flipped = true; return 0 })
		p.Round(1, nil)
		p.Round(2, mkInbox(c.ones-1, 20-c.ones))
		if flipped != (c.b == -1) || c.b != -1 && p.B() != c.b || p.TentativelyDecided() != c.decided {
			t.Errorf("O = %d: b = %d, decided = %v, coin flipped %v; want b = %d (-1: coin), decided = %v",
				c.ones, p.B(), p.TentativelyDecided(), flipped, c.b, c.decided)
		}
	}
}

func TestCascadeCoinBand(t *testing.T) {
	// O = 11: 10 ≤ 10·O/10 ≤ 12 → coin flip. Script both outcomes.
	for _, want := range []int{0, 1} {
		p, err := NewProc(0, 20, 0, newTestStream(1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		p.SetFlip(func() int { return want })
		p.Round(1, nil)
		p.Round(2, mkInbox(11, 8))
		if p.B() != want {
			t.Fatalf("scripted coin %d ignored: b=%d", want, p.B())
		}
		if p.TentativelyDecided() {
			t.Fatal("coin branch must not decide")
		}
	}
}

func TestCascadeLeaderCoin(t *testing.T) {
	// Same band, leader-coin option: adopt the lowest-id sender's bit.
	inbox := mkInbox(11, 8) // sender 1 has bit 1
	p := stepProc(t, 20, 0, inbox, Options{LeaderCoin: true})
	if p.B() != 1 {
		t.Fatalf("leader coin must adopt sender 1's bit, got %d", p.B())
	}
	// Reverse the leader: prepend a zero from id 0... sender ids start at
	// 1 in mkInbox; craft an inbox whose lowest id carries 0.
	inbox2 := append([]sim.Recv{{From: 0, Payload: wire.Plain(0)}}, mkInbox(11, 7)...)
	p2, err := NewProc(1, 20, 0, newTestStream(1), Options{LeaderCoin: true})
	if err != nil {
		t.Fatal(err)
	}
	p2.Round(1, nil)
	p2.Round(2, inbox2)
	if p2.B() != 0 {
		t.Fatalf("leader coin must adopt sender 0's bit, got %d", p2.B())
	}
}

func TestLeaderBitFallback(t *testing.T) {
	if got := leaderBit(nil, 1); got != 1 {
		t.Fatalf("empty inbox must fall back to own bit, got %d", got)
	}
	// Flood messages are skipped.
	inbox := []sim.Recv{
		{From: 0, Payload: wire.Flood(wire.MaskOne)},
		{From: 5, Payload: wire.Plain(0)},
	}
	if got := leaderBit(inbox, 1); got != 0 {
		t.Fatalf("leaderBit must skip flood messages, got %d", got)
	}
}

func TestDetTriggerBeforeStopCheck(t *testing.T) {
	// A decided process whose receive count falls below sqrt(n/log n)
	// must enter the deterministic stage, not STOP — the pseudocode
	// checks the trigger first.
	const n = 64 // threshold ≈ 3.9
	p, err := NewProc(0, n, 1, newTestStream(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.Round(1, nil)
	full := mkInbox(n-1, 0)
	p.Round(2, full) // unanimous: decided flag set
	if !p.TentativelyDecided() {
		t.Fatal("setup: unanimous round must set decided")
	}
	// Next round: only 2 messages arrive (N = 3 < 3.9). Even though the
	// stop test would pass (diff small? it would not here), the process
	// must switch to warmup and keep sending.
	payload, send := p.Round(3, mkInbox(2, 0))
	if !send {
		t.Fatal("deterministic trigger must keep the process sending")
	}
	if wire.IsFlood(payload) {
		t.Fatal("warmup round must broadcast the plain frozen bit")
	}
	if p.Stage() != int(stageWarmup) {
		t.Fatalf("stage = %d, want warmup", p.Stage())
	}
	// The following round begins the flood broadcasts.
	payload, send = p.Round(4, mkInbox(2, 0))
	if !send || !wire.IsFlood(payload) {
		t.Fatal("flood stage must broadcast a tagged mask")
	}
}

func TestFloodDecidesSingleton(t *testing.T) {
	const n = 64
	p, err := NewProc(0, n, 1, newTestStream(1), Options{FloodRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Round(1, nil)
	p.Round(2, mkInbox(1, 0)) // N = 2 < 3.9 → warmup
	p.Round(3, mkInbox(1, 0)) // seed flood with plain 1s
	p.Round(4, []sim.Recv{{From: 1, Payload: wire.Flood(wire.MaskOne)}})
	_, send := p.Round(5, []sim.Recv{{From: 1, Payload: wire.Flood(wire.MaskOne)}})
	if send {
		t.Fatal("flood budget exhausted: process must halt silently")
	}
	v, ok := p.Decided()
	if !ok || v != 1 {
		t.Fatalf("flood decision = (%d, %v), want (1, true)", v, ok)
	}
}

func TestFloodMixedDefaultsZero(t *testing.T) {
	const n = 64
	p, err := NewProc(0, n, 1, newTestStream(1), Options{FloodRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Round(1, nil)
	p.Round(2, mkInbox(0, 1)) // N = 2 → warmup; witnessed a zero
	p.Round(3, mkInbox(0, 1)) // seed flood: mask now {0,1}
	_, send := p.Round(4, nil)
	if send {
		t.Fatal("flood budget exhausted: process must halt")
	}
	v, ok := p.Decided()
	if !ok || v != 0 {
		t.Fatalf("mixed flood decision = (%d, %v), want (0, true)", v, ok)
	}
}
