package sim

import (
	"math/bits"
	"testing"

	"synran/internal/rng"
)

// Property tests for the word access the engine's packed flag columns
// rest on: every word read is checked against the per-bit reference on
// randomized patterns, concentrating on the word-boundary capacities
// n = 63, 64, 65 where a masking bug in the partial last word would hide
// from round-number sizes.

// propSizes are the capacities the property tests sweep: the word
// edges, plus 1 and the two-word edges.
var propSizes = []int{1, 63, 64, 65, 127, 128, 129}

// randomBits fills b with an s-seeded pattern and returns the
// reference bool slice built through the public Set API only.
func randomBits(b *BitSet, s *rng.Stream) []bool {
	ref := make([]bool, b.Len())
	b.ClearAll()
	for i := range ref {
		if s.Bool() {
			b.Set(i)
			ref[i] = true
		}
	}
	return ref
}

// TestBitSetWordsMatchBits checks Words, Word and SetWord against
// the per-bit reference, and that no bit at or past Len is ever set.
func TestBitSetWordsMatchBits(t *testing.T) {
	for _, n := range propSizes {
		s := rng.New(uint64(n)*0x9e37 + 1)
		for trial := 0; trial < 64; trial++ {
			a := NewBitSet(n)
			ref := randomBits(a, s)
			if a.Words() != (n+63)/64 {
				t.Fatalf("n=%d Words=%d, want %d", n, a.Words(), (n+63)/64)
			}
			var visited []int
			for k := 0; k < a.Words(); k++ {
				for w := a.Word(k); w != 0; w &= w - 1 {
					visited = append(visited, k<<6|bits.TrailingZeros64(w))
				}
			}
			j := 0
			for i, set := range ref {
				if !set {
					continue
				}
				if j >= len(visited) || visited[j] != i {
					t.Fatalf("n=%d trial=%d word scan visited %v, missing/misordered at bit %d", n, trial, visited, i)
				}
				j++
			}
			if j != len(visited) {
				t.Fatalf("n=%d trial=%d word scan visited indices past the set: %v", n, trial, visited[j:])
			}

			b := NewBitSet(n)
			for k := 0; k < a.Words(); k++ {
				b.SetWord(k, a.Word(k))
			}
			if b.Len() != n || b.Count() != a.Count() {
				t.Fatalf("n=%d trial=%d SetWord: Len %d Count %d, want %d %d", n, trial, b.Len(), b.Count(), n, a.Count())
			}
			for i, set := range ref {
				if b.Get(i) != set {
					t.Fatalf("n=%d trial=%d SetWord bit %d = %v, want %v", n, trial, i, b.Get(i), set)
				}
			}
			// Count is a popcount: a stray bit past Len would show here.
			if a.Fill(); a.Count() != n {
				t.Fatalf("n=%d Fill counts %d", n, a.Count())
			}
		}
	}
}
