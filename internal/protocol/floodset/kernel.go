package floodset

import (
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
	k := &kernel{
		rounds:   p.rounds,
		mask:     make([]int8, len(procs)),
		sent:     make([]int32, len(procs)),
		decision: make([]int8, len(procs)),
		done:     make([]bool, len(procs)),
	}
	for i, q := range procs {
		cp := q.(*Proc)
		k.mask[i] = int8(cp.mask)
		k.sent[i] = int32(cp.sent)
		k.decision[i] = int8(cp.decision)
		k.done[i] = cp.done
	}
	return k
}

// KernelRound implements sim.TallyKernel. It is Proc.Round, vectorized:
// the round-1 inbox is empty, so the tally is read from round 2 on.
func (k *kernel) KernelRound(r int, active []bool, t *sim.TallyColumns, payloads []int64, sending []bool) {
	for i := range active {
		if !active[i] {
			continue
		}
		if k.done[i] {
			payloads[i], sending[i] = 0, false
			continue
		}
		if r > 1 {
			k.mask[i] |= int8(t.WitnessedMask(i))
		}
		if int(k.sent[i]) >= k.rounds {
			k.decision[i], k.done[i] = int8(decision(int64(k.mask[i]))), true
			payloads[i], sending[i] = 0, false
			continue
		}
		k.sent[i]++
		payloads[i], sending[i] = wire.Flood(int64(k.mask[i])), true
	}
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
func (k *kernel) KernelBookkeep(alive, corrupt, halted []bool) (allDecided, anyAliveActive bool) {
	allDecided = true
	for i, done := range k.done {
		if !alive[i] || corrupt[i] {
			continue
		}
		if done {
			halted[i] = true
		} else {
			allDecided = false
			anyAliveActive = true
		}
	}
	return allDecided, anyAliveActive
}

// KernelConsensus implements sim.TallyKernel.
func (k *kernel) KernelConsensus(alive, corrupt []bool) int {
	v := -1
	for i, done := range k.done {
		if !alive[i] || corrupt[i] || !done {
			continue
		}
		d := int(k.decision[i])
		if v == -1 {
			v = d
		} else if v != d {
			return -1
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

// KernelSync implements sim.TallyKernel: write process i's columnar
// state back into its object form.
func (k *kernel) KernelSync(i int, p sim.Process) {
	cp, ok := p.(*Proc)
	if !ok {
		return
	}
	cp.mask = int64(k.mask[i])
	cp.sent = int(k.sent[i])
	cp.decision = int(k.decision[i])
	cp.done = k.done[i]
}
