package core

import (
	"math/bits"

	"synran/internal/rng"
	"synran/internal/sim"
)

// kernel is the SynRan protocol for the columnar core (the engine's
// default): the whole vector's states in one slice and its coin streams
// in another, advanced in a single KernelRound call, so a
// million-process round touches no heap objects. Each process runs
// state.round, the function Proc.Round runs, on the tally the engine's
// columns hold for it, and draws its private coin from its stream, as
// Proc does.
type kernel struct {
	opts    Options
	q       float64
	states  []state
	streams []rng.Stream
	// stopped marks each process whose state has stopped, which is when
	// it decides, so bookkeeping sweeps words instead of states.
	stopped sim.BitSet
}

var _ sim.TallyKernel = (*kernel)(nil)
var _ sim.KernelBuilder = (*Proc)(nil)

// columnar reports whether processes with these options can run as a
// kernel. LeaderCoin needs the lowest-id sender of the round,
// per-message information a tally cannot carry; every other option
// (SymmetricCoin, SharedCoinSeed, FloodRounds) is column-friendly. The
// one other bar, an injected coin (SetFlip), is an object-level hook
// that only an existing Proc can carry, so only BuildKernel checks it.
func (o Options) columnar() bool { return !o.LeaderCoin }

// NewKernel builds SynRan's columnar kernel straight from (n, inputs,
// seed): the vector NewProcs(n, inputs, seed, opts) builds, with the
// same validation and errors, without any Proc objects. Each coin
// stream is split straight into the kernel's stream slice. It returns a
// nil kernel when opts rule the kernel out, and the caller then builds
// the process vector.
func NewKernel(n int, inputs []int, seed uint64, opts Options) (sim.TallyKernel, error) {
	if !opts.columnar() {
		return nil, nil
	}
	v, err := newVector(n, inputs, seed, opts)
	if err != nil {
		return nil, err
	}
	k := newKernel(n, opts, v.tmpl.q)
	var p Proc
	for i, x := range inputs {
		if err := p.init(&v.tmpl, n, i, x); err != nil {
			return nil, err
		}
		k.states[i] = p.s
		v.root.SplitInto(&k.streams[i], uint64(i))
	}
	return k, nil
}

// BuildKernel implements sim.KernelBuilder: adopt the full process
// vector into a columnar kernel, or return nil when the vector is not
// kernel-capable: every process must be a Proc with identical,
// columnar options and no injected coin.
func (p *Proc) BuildKernel(procs []sim.Process) sim.TallyKernel {
	for _, q := range procs {
		cp, ok := q.(*Proc)
		if !ok || cp.flip != nil || !cp.opts.columnar() || cp.opts != p.opts {
			return nil
		}
	}
	k := newKernel(len(procs), p.opts, p.q)
	for i, q := range procs {
		k.set(i, q.(*Proc))
	}
	return k
}

// newKernel allocates a size-process kernel.
func newKernel(size int, opts Options, q float64) *kernel {
	k := &kernel{
		opts:    opts,
		q:       q,
		states:  make([]state, size),
		streams: make([]rng.Stream, size),
	}
	k.stopped.Reset(size)
	return k
}

// set writes process p into row i; get is its inverse.
func (k *kernel) set(i int, p *Proc) {
	k.states[i], k.streams[i] = p.s, p.rng
	if p.s.done() {
		k.stopped.Set(i)
	}
}

func (k *kernel) get(i int, p *Proc) {
	*p = Proc{id: i, s: k.states[i], rng: k.streams[i], opts: k.opts, q: k.q}
}

// KernelRound implements sim.TallyKernel: each active process, visited
// word by word, runs state.round on its tally row, and each word's
// sending and stopped bits are written back at once.
func (k *kernel) KernelRound(r int, active *sim.BitSet, t *sim.TallyColumns, payloads []int64, sending *sim.BitSet) {
	for wi := 0; wi < active.Words(); wi++ {
		aw := active.Word(wi)
		if aw == 0 {
			continue
		}
		sw := sending.Word(wi) &^ aw
		stw := k.stopped.Word(wi)
		for w := aw; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			i := wi<<6 | b
			s := &k.states[i]
			tl := tally{
				ones:  int(t.Ones[i]),
				zeros: int(t.Zeros[i]),
				count: int(t.Count[i]),
			}
			if s.readsMask() {
				tl.mask = t.WitnessedMask(i)
			}
			p, send, coin := s.round(r, tl, k.q, &k.opts)
			if coin {
				p = s.adopt(k.streams[i].Bit())
			}
			payloads[i] = p
			if send {
				sw |= 1 << uint(b)
			}
			if s.done() {
				stw |= 1 << uint(b)
			}
		}
		sending.SetWord(wi, sw)
		k.stopped.SetWord(wi, stw)
	}
}

// KernelClass implements sim.TallyKernel: the classification the
// object path's inbox fold applies to each payload value.
func (k *kernel) KernelClass(p int64) (one, mz, mo bool) {
	return classifyPayload(p)
}

// KernelDecided implements sim.TallyKernel.
func (k *kernel) KernelDecided(i int) (int, bool) {
	return int(k.states[i].b), k.states[i].done()
}

// KernelStopped implements sim.TallyKernel.
func (k *kernel) KernelStopped(i int) bool { return k.states[i].done() }

// KernelBookkeep implements sim.TallyKernel: the end-of-round
// decided/stopped sweep over the alive, non-corrupt words, one call
// instead of two interface dispatches per live process. A process
// decides when it stops, so the stopped words answer both.
func (k *kernel) KernelBookkeep(alive, corrupt, halted *sim.BitSet) (allDecided, anyAliveActive bool) {
	allDecided = true
	for wi := 0; wi < alive.Words(); wi++ {
		live := alive.Word(wi) &^ corrupt.Word(wi)
		if live == 0 {
			continue
		}
		stop := live & k.stopped.Word(wi)
		hw := halted.Word(wi) | stop
		halted.SetWord(wi, hw)
		if stop != live {
			allDecided = false
		}
		if live&^hw != 0 {
			anyAliveActive = true
		}
	}
	return allDecided, anyAliveActive
}

// KernelConsensus implements sim.TallyKernel.
func (k *kernel) KernelConsensus(alive, corrupt *sim.BitSet) int {
	v := -1
	for wi := 0; wi < alive.Words(); wi++ {
		for w := alive.Word(wi) &^ corrupt.Word(wi) & k.stopped.Word(wi); w != 0; w &= w - 1 {
			d := int(k.states[wi<<6|bits.TrailingZeros64(w)].b)
			if v == -1 {
				v = d
			} else if v != d {
				return -1
			}
		}
	}
	return v
}

// KernelReseed implements sim.TallyKernel, matching Proc.Reseed.
func (k *kernel) KernelReseed(i int, seed uint64) { k.streams[i].Reseed(seed) }

// KernelClone implements sim.TallyKernel.
func (k *kernel) KernelClone() sim.TallyKernel {
	c := &kernel{}
	k.KernelCopyInto(c)
	return c
}

// KernelCopyInto implements sim.TallyKernel: overwrite dst reusing its
// storage (the arena-snapshot hot path — three flat copies instead of
// n ProcessCopier calls).
func (k *kernel) KernelCopyInto(dst sim.TallyKernel) bool {
	d, ok := dst.(*kernel)
	if !ok {
		return false
	}
	d.opts, d.q = k.opts, k.q
	d.states = append(d.states[:0], k.states...)
	d.streams = append(d.streams[:0], k.streams...)
	d.stopped.CopyFrom(&k.stopped)
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
	block := make([]Proc, len(k.states))
	procs := make([]sim.Process, len(block))
	for i := range block {
		k.get(i, &block[i])
		procs[i] = &block[i]
	}
	return procs
}
