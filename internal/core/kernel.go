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
// Proc does. coins counts those draws, the kernel's only randomness.
type kernel struct {
	opts    Options
	q       float64
	states  []state
	streams []rng.Stream
	coins   int
}

var _ sim.TallyKernel = (*kernel)(nil)
var _ sim.CoinCounter = (*kernel)(nil)
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
	k := newKernel(n, opts, v.q)
	for i, x := range inputs {
		if err := v.start(&k.states[i], i, x); err != nil {
			return nil, err
		}
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
	return &kernel{
		opts:    opts,
		q:       q,
		states:  make([]state, size),
		streams: make([]rng.Stream, size),
	}
}

// set writes process p into row i; get is its inverse.
func (k *kernel) set(i int, p *Proc) { k.states[i], k.streams[i] = p.s, p.rng }

func (k *kernel) get(i int, p *Proc) {
	*p = Proc{id: i, s: k.states[i], rng: k.streams[i], opts: k.opts, q: k.q}
}

// KernelRound implements sim.TallyKernel: each active process, visited
// word by word, runs state.round on its tally row, and each word's
// sending and stopped bits are written back at once.
func (k *kernel) KernelRound(r int, active *sim.BitSet, t *sim.TallyColumns, payloads []int64, sending, stopped *sim.BitSet) {
	for wi := 0; wi < active.Words(); wi++ {
		aw := active.Word(wi)
		if aw == 0 {
			continue
		}
		sw, stw := sending.Word(wi)&^aw, stopped.Word(wi)&^aw
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
				k.coins++
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
		stopped.SetWord(wi, stw)
	}
}

// KernelClass implements sim.TallyKernel: the classification the
// object path's inbox fold applies to each payload value.
func (k *kernel) KernelClass(p int64) (one, mz, mo bool) {
	return classifyPayload(p)
}

// KernelDecision implements sim.TallyKernel: a stopped process's b is
// its decision.
func (k *kernel) KernelDecision(i int) int { return int(k.states[i].b) }

// KernelReseed implements sim.TallyKernel, matching Proc.Reseed.
func (k *kernel) KernelReseed(i int, seed uint64) { k.streams[i].Reseed(seed) }

// KernelCoins implements sim.CoinCounter: the private coins drawn so
// far.
func (k *kernel) KernelCoins() int { return k.coins }

// KernelCopyInto implements sim.TallyKernel, reusing dst's storage
// when it is a SynRan kernel (the arena-snapshot hot path: two flat
// copies instead of n ProcessCopier calls).
func (k *kernel) KernelCopyInto(dst sim.TallyKernel) sim.TallyKernel {
	d, ok := dst.(*kernel)
	if !ok {
		d = &kernel{}
	}
	d.opts, d.q, d.coins = k.opts, k.q, k.coins
	d.states = append(d.states[:0], k.states...)
	d.streams = append(d.streams[:0], k.streams...)
	return d
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
