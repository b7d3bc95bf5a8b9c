package valency

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"synran/internal/sim"
	"synran/internal/wire"
)

// oracleCandidates is LowerBound's candidate builder before it kept its
// plans in scratch: fresh plan slices, a fresh half-delivery mask per
// value, and a dedupe that keys each plan on its victims and delivery
// flag in a map.
func oracleCandidates(v *sim.View, perRound int) [][]sim.CrashPlan {
	cands := [][]sim.CrashPlan{nil}
	if perRound == 0 {
		return cands
	}
	ones, zeros := senderIDsByValue(v, nil, nil)
	alive := v.AliveCount()
	for _, senders := range [][]int{ones, zeros} {
		if len(senders) == 0 {
			continue
		}
		for _, k := range []int{1, alive/10 + 1, perRound / 2, perRound} {
			if k <= 0 || k > len(senders) || k > perRound {
				continue
			}
			plan := make([]sim.CrashPlan, k)
			for i := 0; i < k; i++ {
				plan[i] = sim.CrashPlan{Victim: senders[i]}
			}
			cands = append(cands, plan)
		}
		half := sim.NewBitSet(v.N)
		for wi, cnt := 0, 0; wi < v.Words() && cnt < alive/2; wi++ {
			for w := v.AliveWord(wi); w != 0 && cnt < alive/2; w &= w - 1 {
				half.Set(wi<<6 | bits.TrailingZeros64(w))
				cnt++
			}
		}
		cands = append(cands, []sim.CrashPlan{{Victim: senders[0], Deliver: half}})
	}
	seen := map[string]bool{}
	var out [][]sim.CrashPlan
	for _, c := range cands {
		b := make([]byte, 0, len(c)*4)
		for _, p := range c {
			b = binary.AppendUvarint(b, uint64(p.Victim))
			if p.Deliver != nil {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		}
		if !seen[string(b)] {
			seen[string(b)] = true
			out = append(out, c)
		}
	}
	return out
}

// candidatesDiff describes the first difference between two candidate
// lists: victims, delivery masks and order all count.
func candidatesDiff(got, want [][]sim.CrashPlan) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d candidates, want %d", len(got), len(want))
	}
	for c := range want {
		if len(got[c]) != len(want[c]) {
			return fmt.Sprintf("candidate %d has %d plans, want %d", c, len(got[c]), len(want[c]))
		}
		for i, w := range want[c] {
			g := got[c][i]
			if g.Victim != w.Victim || (g.Deliver == nil) != (w.Deliver == nil) {
				return fmt.Sprintf("candidate %d plan %d: %+v, want %+v", c, i, g, w)
			}
			if w.Deliver == nil {
				continue
			}
			if g.Deliver.Len() != w.Deliver.Len() {
				return fmt.Sprintf("candidate %d plan %d: mask over %d, want %d", c, i, g.Deliver.Len(), w.Deliver.Len())
			}
			for j := 0; j < w.Deliver.Len(); j++ {
				if g.Deliver.Get(j) != w.Deliver.Get(j) {
					return fmt.Sprintf("candidate %d plan %d: mask bit %d = %v", c, i, j, g.Deliver.Get(j))
				}
			}
		}
	}
	return ""
}

// syntheticView builds a round view over n processes: alive ones are
// listed, senders among them carry the given plain bits (or a flood
// payload when the bit is -1).
func syntheticView(n int, alive []int, bits map[int]int) *sim.View {
	aliveSet, sending, halted := sim.NewBitSet(n), sim.NewBitSet(n), sim.NewBitSet(n)
	payloads := make([]int64, n)
	for _, i := range alive {
		aliveSet.Set(i)
	}
	for i, b := range bits {
		sending.Set(i)
		if b < 0 {
			payloads[i] = wire.Flood(wire.ValueMask(0))
		} else {
			payloads[i] = wire.Plain(b)
		}
	}
	return sim.NewView(sim.ViewState{Round: 1, N: n, T: n, Budget: n,
		Alive: aliveSet, Halted: halted, Sending: sending, Payloads: payloads})
}

// TestCandidatesMatchMapDedupe compares the scratch-built candidate list
// with the map-deduped oracle on small views, where alive < 10 makes
// alive/10+1 = 1 repeat the single-crash size and perRound ∈ {2, 3}
// makes perRound/2 repeat it too, and on larger ones. One LowerBound
// serves every view, so a plan left in scratch by an earlier call
// cannot leak into a later one.
func TestCandidatesMatchMapDedupe(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	a := &LowerBound{}
	for q := 0; q < 3000; q++ {
		n := 1 + r.Intn(9)
		if q%4 == 3 {
			n = 10 + r.Intn(150)
		}
		var alive []int
		bits := map[int]int{}
		for i := 0; i < n; i++ {
			if r.Intn(5) == 0 {
				continue
			}
			alive = append(alive, i)
			if r.Intn(4) != 0 {
				bits[i] = r.Intn(3) - 1
			}
		}
		perRound := []int{0, 1, 2, 3, 4, 5, n}[r.Intn(7)]
		v := syntheticView(n, alive, bits)
		if d := candidatesDiff(a.candidates(v, perRound), oracleCandidates(v, perRound)); d != "" {
			t.Fatalf("n=%d alive=%d perRound=%d: %s", n, len(alive), perRound, d)
		}
	}
}

// TestDedupeKeepsVictimsPast16Bits pins full-width victim ids: at
// n > 65536, the single-crash plans on victims 1 (a ones sender) and
// 65537 (a zeros sender) are different candidates and must both
// survive, in the oracle's order.
func TestDedupeKeepsVictimsPast16Bits(t *testing.T) {
	const n = 65540
	v := syntheticView(n, []int{1, 2, 65537, 65538}, map[int]int{1: 1, 65537: 0})
	got := (&LowerBound{}).candidates(v, 3)
	if d := candidatesDiff(got, oracleCandidates(v, 3)); d != "" {
		t.Fatal(d)
	}
	if len(got) != 5 || got[1][0].Victim != 1 || got[3][0].Victim != 65537 {
		t.Fatalf("candidates %v, want single crashes of victims 1 and 65537", got)
	}
}
