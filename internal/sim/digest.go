package sim

import (
	"fmt"
	"math/bits"
)

// Digest is an observer that folds every engine event into an FNV-1a
// hash. Two executions with identical digests made identical decisions,
// crashed the same processes in the same rounds, and exchanged the same
// payloads — the artifact behind the repository's "exactly reproducible
// from a seed" claim, and a convenient cross-engine check (the two
// engine cores must produce equal digests).
type Digest struct {
	h uint64
}

var _ Observer = (*Digest)(nil)

// NewDigest returns an empty digest.
func NewDigest() *Digest {
	return &Digest{h: 1469598103934665603} // FNV-1a offset basis
}

func (d *Digest) mix(words ...uint64) {
	const prime = 1099511628211
	for _, w := range words {
		for i := 0; i < 8; i++ {
			d.h ^= (w >> (8 * uint(i))) & 0xff
			d.h *= prime
		}
	}
}

// OnRound implements Observer.
func (d *Digest) OnRound(r int, v *View) {
	d.mix(0x01, uint64(r))
	for k := 0; k < v.Words(); k++ {
		for w := v.SendingWord(k); w != 0; w &= w - 1 {
			i := k<<6 | bits.TrailingZeros64(w)
			d.mix(uint64(i), uint64(v.Payload(i))+1)
		}
	}
}

// OnCrash implements Observer.
func (d *Digest) OnCrash(r, victim, delivered int) {
	d.mix(0x02, uint64(r), uint64(victim), uint64(delivered))
}

// OnDecide implements Observer.
func (d *Digest) OnDecide(r, p, value int) {
	d.mix(0x03, uint64(r), uint64(p), uint64(value))
}

// OnHalt implements Observer.
func (d *Digest) OnHalt(r, p int) {
	d.mix(0x04, uint64(r), uint64(p))
}

// Clone returns an independent digest with the same accumulated state —
// used by replay lanes that fork an execution mid-run and need the
// fork's digest to continue from the fork point.
func (d *Digest) Clone() *Digest {
	c := *d
	return &c
}

// Sum returns the digest value.
func (d *Digest) Sum() uint64 { return d.h }

// String renders the digest in the conventional hex form.
func (d *Digest) String() string { return fmt.Sprintf("%016x", d.h) }
