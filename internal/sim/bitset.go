package sim

import "math/bits"

// BitSet is a fixed-capacity bit set: a crashing process's delivery mask
// (which receivers its final-round message still reaches, the per-message
// fail-stop granularity of Section 3.1 of the paper), and the engine's
// per-process flag columns (alive, halted, corrupt, sending, active).
// Word k holds indices 64k … 64k+63, index i at bit i&63. Bits at or past
// Len are always clear, so Count is a plain popcount.
type BitSet struct {
	n     int
	words []uint64
}

// NewBitSet returns an empty bit set over [0, n).
func NewBitSet(n int) *BitSet {
	return &BitSet{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the capacity of the set.
func (b *BitSet) Len() int { return b.n }

// Set marks index i as present.
func (b *BitSet) Set(i int) {
	b.words[i>>6] |= 1 << uint(i&63)
}

// Clear marks index i as absent.
func (b *BitSet) Clear(i int) {
	b.words[i>>6] &^= 1 << uint(i&63)
}

// Get reports whether index i is present.
func (b *BitSet) Get(i int) bool {
	return b.words[i>>6]&(1<<uint(i&63)) != 0
}

// Words returns the number of 64-bit words the set spans.
func (b *BitSet) Words() int { return len(b.words) }

// Word returns word k: indices 64k … 64k+63, index i at bit i&63.
func (b *BitSet) Word(k int) uint64 { return b.words[k] }

// SetWord overwrites word k. The caller keeps bits at or past Len clear;
// a word derived from other sets of the same capacity by and, and-not or
// a subset of their bits always does.
func (b *BitSet) SetWord(k int, w uint64) { b.words[k] = w }

// Fill marks every index as present.
func (b *BitSet) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// Count returns the number of present indices.
func (b *BitSet) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// ClearAll marks every index as absent, keeping the capacity.
func (b *BitSet) ClearAll() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Reset resizes the set to capacity n and clears it, reusing the word
// storage when it is large enough. This is the allocation-free
// counterpart of NewBitSet used by the arena snapshot path.
func (b *BitSet) Reset(n int) {
	words := (n + 63) / 64
	if cap(b.words) < words {
		b.words = make([]uint64, words)
	} else {
		b.words = b.words[:words]
	}
	b.n = n
	b.ClearAll()
}

// Clone returns a deep copy of the set.
func (b *BitSet) Clone() *BitSet {
	c := &BitSet{n: b.n, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// CopyFrom overwrites the set with src's capacity and contents, reusing
// the word storage when possible. It is the allocation-free counterpart
// of Clone.
func (b *BitSet) CopyFrom(src *BitSet) {
	b.n = src.n
	b.words = append(b.words[:0], src.words...)
}

// trim clears bits beyond the logical length so Count stays exact.
func (b *BitSet) trim() {
	if rem := b.n & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << uint(rem)) - 1
	}
}
