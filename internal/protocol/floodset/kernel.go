package floodset

import (
	"math/bits"

	"synran/internal/sim"
	"synran/internal/wire"
)

// kernel is FloodSet as a structure-of-arrays state machine: Proc's
// per-process fields flattened into columns and advanced for the whole
// vector in one KernelRound call, so the engine's columnar core runs
// FloodSet (and omitflood, the same Proc with more rounds) on O(n)
// tallies instead of n² inboxes. It must stay bit-identical to driving
// the same Procs through the object path; the conformance differential
// lane and the exhaustive small-n check pin that.
type kernel struct {
	rounds   int // shared by every process: BuildKernel rejects mixed vectors
	mask     []int8
	sent     []int32
	decision []int8
	done     []bool
}

var _ sim.TallyKernel = (*kernel)(nil)
var _ sim.KernelBuilder = (*Proc)(nil)

// NewKernel builds FloodSet's columnar kernel straight from (n, t,
// inputs): the vector NewProcs(n, t, inputs) builds, with the same
// validation and errors, written into columns without any Proc
// objects.
func NewKernel(n, t int, inputs []int) (sim.TallyKernel, error) {
	return newKernel(n, t+1, inputs)
}

// NewKernelTolerant is NewKernel for the vector NewProcsTolerant(n, t,
// extra, inputs) builds.
func NewKernelTolerant(n, t, extra int, inputs []int) (sim.TallyKernel, error) {
	if err := checkExtra(extra); err != nil {
		return nil, err
	}
	return newKernel(n, t+extra+1, inputs)
}

// newKernel is newVector in columnar form: each process starts through
// init, as in newVector, and is written into its row by set.
func newKernel(n, rounds int, inputs []int) (sim.TallyKernel, error) {
	if err := checkLen(n, inputs); err != nil {
		return nil, err
	}
	k := makeKernel(n, rounds)
	var p Proc
	for i, x := range inputs {
		if err := p.init(i, x, rounds); err != nil {
			return nil, err
		}
		k.set(i, &p)
	}
	return k, nil
}

// BuildKernel implements sim.KernelBuilder: adopt the process vector
// into a columnar kernel, or return nil (object path) unless every
// process is a *Proc flooding for the same number of rounds.
func (p *Proc) BuildKernel(procs []sim.Process) sim.TallyKernel {
	for _, q := range procs {
		cp, ok := q.(*Proc)
		if !ok || cp.rounds != p.rounds {
			return nil
		}
	}
	k := makeKernel(len(procs), p.rounds)
	for i, q := range procs {
		k.set(i, q.(*Proc))
	}
	return k
}

// makeKernel allocates the columns of an n-process kernel.
func makeKernel(n, rounds int) *kernel {
	return &kernel{
		rounds:   rounds,
		mask:     make([]int8, n),
		sent:     make([]int32, n),
		decision: make([]int8, n),
		done:     make([]bool, n),
	}
}

// set writes process p's state into row i: the one step by which both
// kernel constructors fill the kernel.
func (k *kernel) set(i int, p *Proc) {
	k.mask[i] = int8(p.mask)
	k.sent[i] = int32(p.sent)
	k.decision[i] = int8(p.decision)
	k.done[i] = p.done
}

// KernelRound implements sim.TallyKernel: round runs for each active
// process, visited word by word, and each word's sending bits are
// written back at once.
func (k *kernel) KernelRound(r int, active *sim.BitSet, t *sim.TallyColumns, payloads []int64, sending *sim.BitSet) {
	for wi := 0; wi < active.Words(); wi++ {
		aw := active.Word(wi)
		if aw == 0 {
			continue
		}
		sw := sending.Word(wi) &^ aw
		for w := aw; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			i := wi<<6 | b
			p, send := k.round(i, r, t)
			payloads[i] = p
			if send {
				sw |= 1 << uint(b)
			}
		}
		sending.SetWord(wi, sw)
	}
}

// round is Proc.Round for process i on columns: the round-1 inbox is
// empty, so the tally is read from round 2 on.
func (k *kernel) round(i, r int, t *sim.TallyColumns) (int64, bool) {
	if k.done[i] {
		return 0, false
	}
	if r > 1 {
		k.mask[i] |= int8(t.WitnessedMask(i))
	}
	if int(k.sent[i]) >= k.rounds {
		k.decision[i], k.done[i] = int8(decision(int64(k.mask[i]))), true
		return 0, false
	}
	k.sent[i]++
	return wire.Flood(int64(k.mask[i])), true
}

// KernelClass implements sim.TallyKernel: Round ORs every payload's
// MaskBoth bits into the witnessed set, whatever its tag, and reads no
// vote counts.
func (k *kernel) KernelClass(p int64) (one, mz, mo bool) {
	return false, p&wire.MaskZero != 0, p&wire.MaskOne != 0
}

// KernelDecided implements sim.TallyKernel.
func (k *kernel) KernelDecided(i int) (int, bool) { return int(k.decision[i]), k.done[i] }

// KernelStopped implements sim.TallyKernel.
func (k *kernel) KernelStopped(i int) bool { return k.done[i] }

// KernelBookkeep implements sim.TallyKernel. A FloodSet process decides
// exactly when it stops, so one column answers both questions.
func (k *kernel) KernelBookkeep(alive, corrupt, halted *sim.BitSet) (allDecided, anyAliveActive bool) {
	allDecided = true
	for wi := 0; wi < alive.Words(); wi++ {
		live := alive.Word(wi) &^ corrupt.Word(wi)
		if live == 0 {
			continue
		}
		hw := halted.Word(wi)
		for w := live; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			if k.done[wi<<6|b] {
				hw |= 1 << uint(b)
			} else {
				allDecided = false
				anyAliveActive = true
			}
		}
		halted.SetWord(wi, hw)
	}
	return allDecided, anyAliveActive
}

// KernelConsensus implements sim.TallyKernel.
func (k *kernel) KernelConsensus(alive, corrupt *sim.BitSet) int {
	v := -1
	for wi := 0; wi < alive.Words(); wi++ {
		for w := alive.Word(wi) &^ corrupt.Word(wi); w != 0; w &= w - 1 {
			i := wi<<6 | bits.TrailingZeros64(w)
			if !k.done[i] {
				continue
			}
			d := int(k.decision[i])
			if v == -1 {
				v = d
			} else if v != d {
				return -1
			}
		}
	}
	return v
}

// KernelReseed implements sim.TallyKernel: FloodSet is deterministic.
func (k *kernel) KernelReseed(int, uint64) {}

// KernelClone implements sim.TallyKernel.
func (k *kernel) KernelClone() sim.TallyKernel {
	c := &kernel{}
	k.KernelCopyInto(c)
	return c
}

// KernelCopyInto implements sim.TallyKernel, reusing dst's columns.
func (k *kernel) KernelCopyInto(dst sim.TallyKernel) bool {
	d, ok := dst.(*kernel)
	if !ok {
		return false
	}
	d.rounds = k.rounds
	d.mask = append(d.mask[:0], k.mask...)
	d.sent = append(d.sent[:0], k.sent...)
	d.decision = append(d.decision[:0], k.decision...)
	d.done = append(d.done[:0], k.done...)
	return true
}

// KernelProcess implements sim.TallyKernel: a fresh Proc holding
// process i's current state.
func (k *kernel) KernelProcess(i int) sim.Process {
	p := new(Proc)
	k.get(i, p)
	return p
}

// KernelProcs implements sim.TallyKernel: the whole vector as one block
// of Procs.
func (k *kernel) KernelProcs() []sim.Process {
	block := make([]Proc, len(k.mask))
	procs := make([]sim.Process, len(k.mask))
	for i := range block {
		k.get(i, &block[i])
		procs[i] = &block[i]
	}
	return procs
}

// get writes row i into p in object form: the inverse of set.
func (k *kernel) get(i int, p *Proc) {
	*p = Proc{
		id: i, rounds: k.rounds,
		mask:     int64(k.mask[i]),
		sent:     int(k.sent[i]),
		decision: int(k.decision[i]),
		done:     k.done[i],
	}
}
