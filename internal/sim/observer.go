package sim

import (
	"fmt"
	"io"
	"math/bits"
)

// TraceObserver writes a human-readable line per engine event. Useful in
// cmd/consensus-sim for inspecting small executions.
type TraceObserver struct {
	W io.Writer
}

var _ Observer = (*TraceObserver)(nil)

// OnRound prints the round header with the Phase-A payload vector.
func (t *TraceObserver) OnRound(r int, v *View) {
	ones, sending := 0, 0
	for k := 0; k < v.Words(); k++ {
		for w := v.SendingWord(k); w != 0; w &= w - 1 {
			sending++
			if v.Payload(k<<6|bits.TrailingZeros64(w))&1 == 1 {
				ones++
			}
		}
	}
	fmt.Fprintf(t.W, "round %3d: alive=%d sending=%d ones=%d budget=%d\n",
		r, v.AliveCount(), sending, ones, v.Budget)
}

// OnCrash prints a crash event.
func (t *TraceObserver) OnCrash(r, victim, delivered int) {
	fmt.Fprintf(t.W, "round %3d: crash p%d (message delivered to %d receivers)\n", r, victim, delivered)
}

// OnDecide prints a decision event.
func (t *TraceObserver) OnDecide(r, p, value int) {
	fmt.Fprintf(t.W, "round %3d: p%d decides %d\n", r, p, value)
}

// OnHalt prints a halt event.
func (t *TraceObserver) OnHalt(r, p int) {
	fmt.Fprintf(t.W, "round %3d: p%d halts\n", r, p)
}

// CrashHistogram records how many crashes the adversary performed in each
// round; experiment E8 uses it to measure the per-block crash cost the
// Theorem 2 analysis predicts.
type CrashHistogram struct {
	PerRound []int
	Rounds   int
}

var _ Observer = (*CrashHistogram)(nil)

// OnRound extends the histogram to cover round r.
func (c *CrashHistogram) OnRound(r int, _ *View) {
	for len(c.PerRound) < r+1 {
		c.PerRound = append(c.PerRound, 0)
	}
	if r > c.Rounds {
		c.Rounds = r
	}
}

// OnCrash counts one crash in round r.
func (c *CrashHistogram) OnCrash(r, _, _ int) {
	for len(c.PerRound) < r+1 {
		c.PerRound = append(c.PerRound, 0)
	}
	c.PerRound[r]++
}

// OnDecide implements Observer.
func (c *CrashHistogram) OnDecide(int, int, int) {}

// OnHalt implements Observer.
func (c *CrashHistogram) OnHalt(int, int) {}

// Total returns the total number of crashes recorded.
func (c *CrashHistogram) Total() int {
	sum := 0
	for _, v := range c.PerRound {
		sum += v
	}
	return sum
}

// BlockTotals groups the per-round crash counts into consecutive blocks
// of the given size (Theorem 2 argues in blocks of 3 rounds) and returns
// the crash count of each block.
func (c *CrashHistogram) BlockTotals(blockSize int) []int {
	if blockSize <= 0 || c.Rounds == 0 {
		return nil
	}
	nBlocks := (c.Rounds + blockSize - 1) / blockSize
	out := make([]int, nBlocks)
	for r := 1; r <= c.Rounds && r < len(c.PerRound); r++ {
		out[(r-1)/blockSize] += c.PerRound[r]
	}
	return out
}

// MultiObserver fans events out to several observers.
type MultiObserver []Observer

var _ Observer = (MultiObserver)(nil)

// OnRound implements Observer.
func (m MultiObserver) OnRound(r int, v *View) {
	for _, o := range m {
		o.OnRound(r, v)
	}
}

// OnCrash implements Observer.
func (m MultiObserver) OnCrash(r, victim, delivered int) {
	for _, o := range m {
		o.OnCrash(r, victim, delivered)
	}
}

// OnDecide implements Observer.
func (m MultiObserver) OnDecide(r, p, value int) {
	for _, o := range m {
		o.OnDecide(r, p, value)
	}
}

// OnHalt implements Observer.
func (m MultiObserver) OnHalt(r, p int) {
	for _, o := range m {
		o.OnHalt(r, p)
	}
}
