package floodset

import (
	"math/bits"

	"synran/internal/sim"
	"synran/internal/wire"
)

// kernel is FloodSet for the columnar core: the whole vector's states
// in one slice, advanced in one KernelRound call, so the engine runs
// FloodSet (and omitflood, the same Proc with more rounds) on O(n)
// tallies instead of n² inboxes. Each process runs state.round, the
// function Proc.Round runs, on the witnessed set its tally row holds.
type kernel struct {
	rounds int // shared by every process: BuildKernel rejects mixed vectors
	states []state
}

var _ sim.TallyKernel = (*kernel)(nil)
var _ sim.KernelBuilder = (*Proc)(nil)

// NewKernel builds FloodSet's columnar kernel straight from (n, t,
// inputs): the vector NewProcs(n, t, inputs) builds, with the same
// validation and errors, without any Proc objects.
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
// init, as in newVector, and only its state is kept.
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
		k.states[i] = p.s
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
		k.states[i] = q.(*Proc).s
	}
	return k
}

// makeKernel allocates an n-process kernel.
func makeKernel(n, rounds int) *kernel {
	return &kernel{rounds: rounds, states: make([]state, n)}
}

// KernelRound implements sim.TallyKernel: each active process, visited
// word by word, runs state.round on its tally row's witnessed set (the
// round-1 inbox is empty, so the tally is read from round 2 on), and
// each word's sending bits are written back at once.
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
			var witnessed int64
			if r > 1 {
				witnessed = t.WitnessedMask(i)
			}
			p, send := k.states[i].round(witnessed, k.rounds)
			payloads[i] = p
			if send {
				sw |= 1 << uint(b)
			}
		}
		sending.SetWord(wi, sw)
	}
}

// KernelClass implements sim.TallyKernel: Round ORs every payload's
// MaskBoth bits into the witnessed set, whatever its tag, and reads no
// vote counts.
func (k *kernel) KernelClass(p int64) (one, mz, mo bool) {
	return false, p&wire.MaskZero != 0, p&wire.MaskOne != 0
}

// KernelDecided implements sim.TallyKernel.
func (k *kernel) KernelDecided(i int) (int, bool) {
	return int(k.states[i].decision), k.states[i].done
}

// KernelStopped implements sim.TallyKernel.
func (k *kernel) KernelStopped(i int) bool { return k.states[i].done }

// KernelBookkeep implements sim.TallyKernel. A FloodSet process decides
// exactly when it stops, so its done flag answers both questions.
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
			if k.states[wi<<6|b].done {
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
			s := &k.states[wi<<6|bits.TrailingZeros64(w)]
			if !s.done {
				continue
			}
			d := int(s.decision)
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

// KernelCopyInto implements sim.TallyKernel, reusing dst's storage.
func (k *kernel) KernelCopyInto(dst sim.TallyKernel) bool {
	d, ok := dst.(*kernel)
	if !ok {
		return false
	}
	d.rounds = k.rounds
	d.states = append(d.states[:0], k.states...)
	return true
}

// KernelProcess implements sim.TallyKernel: a fresh Proc holding
// process i's current state.
func (k *kernel) KernelProcess(i int) sim.Process {
	return &Proc{id: i, rounds: k.rounds, s: k.states[i]}
}

// KernelProcs implements sim.TallyKernel: the whole vector as one block
// of Procs.
func (k *kernel) KernelProcs() []sim.Process {
	block := make([]Proc, len(k.states))
	procs := make([]sim.Process, len(block))
	for i := range block {
		block[i] = Proc{id: i, rounds: k.rounds, s: k.states[i]}
		procs[i] = &block[i]
	}
	return procs
}
