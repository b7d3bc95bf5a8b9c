package core

import (
	"fmt"
	"math/bits"

	"synran/internal/rng"
	"synran/internal/sim"
	"synran/internal/wire"
)

// Thin wire aliases so the vectorized round reads like Proc.Round.
func plainPayload(b int) int64   { return wire.Plain(b) }
func floodPayload(m int64) int64 { return wire.Flood(m) }
func valueMaskOf(b int) int64    { return wire.ValueMask(b) }

// floodDecision is finishFlood's rule: singleton {1} decides 1,
// anything else decides 0.
func floodDecision(m int64) int {
	if m == wire.MaskOne {
		return 1
	}
	return 0
}

// classifyPayload gives one payload's contribution to the round tally:
// one is countValues' class, mz/mo the witnessed-value-set bits absorb
// would union in.
func classifyPayload(p int64) (one, mz, mo bool) {
	if wire.IsFlood(p) {
		m := wire.Mask(p)
		return m == wire.MaskOne, m&wire.MaskZero != 0, m&wire.MaskOne != 0
	}
	b := wire.Bit(p)
	return b == 1, b == 0, b == 1
}

// kernel is the SynRan protocol as a structure-of-arrays state machine:
// every Proc field flattened into one column per field, advanced for the
// whole vector in a single KernelRound call. It exists so the columnar
// core (the engine's default) can run million-process rounds
// without touching n heap objects — and it must stay bit-identical to
// driving the same Procs through the object path (same payloads, same
// decisions, same rng consumption); the conformance differential lane
// pins that on every case.
//
// The nHist slice becomes a 3-deep sliding window (h1..h3): probRound
// only ever reads N^{r-1}, N^{r-2}, N^{r-3}, and histLen preserves the
// alignment invariant so get can rebuild an object-form history that
// keeps working if the execution falls back to the object path mid-run
// (Byzantine forgeries).
type kernel struct {
	n    int
	opts Options
	q    float64

	b          []int8
	st         []int8
	decided    []bool
	hasDecided []bool
	decision   []int8
	floodMask  []int8
	floodLeft  []int32
	histLen    []int32
	h1, h2, h3 []int32 // N^{r-1}, N^{r-2}, N^{r-3}; rounds <= 0 read as n
	streams    []rng.Stream
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
// same validation and errors, written into columns without any Proc
// objects. Each coin stream is split straight into the kernel's stream
// column. It returns a nil kernel when opts rule the kernel out, and
// the caller then builds the process vector.
func NewKernel(n int, inputs []int, seed uint64, opts Options) (sim.TallyKernel, error) {
	if !opts.columnar() {
		return nil, nil
	}
	v, err := newVector(n, inputs, seed, opts)
	if err != nil {
		return nil, err
	}
	k := newKernel(n, n, opts, v.tmpl.q)
	var p Proc
	for i, x := range inputs {
		if err := p.init(&v.tmpl, i, x); err != nil {
			return nil, err
		}
		k.set(i, &p)
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
	k := newKernel(len(procs), p.n, p.opts, p.q)
	for i, q := range procs {
		k.set(i, q.(*Proc))
	}
	return k
}

// newKernel allocates the columns of a size-process kernel for SynRan
// at system size n.
func newKernel(size, n int, opts Options, q float64) *kernel {
	return &kernel{
		n:          n,
		opts:       opts,
		q:          q,
		b:          make([]int8, size),
		st:         make([]int8, size),
		decided:    make([]bool, size),
		hasDecided: make([]bool, size),
		decision:   make([]int8, size),
		floodMask:  make([]int8, size),
		floodLeft:  make([]int32, size),
		histLen:    make([]int32, size),
		h1:         make([]int32, size),
		h2:         make([]int32, size),
		h3:         make([]int32, size),
		streams:    make([]rng.Stream, size),
	}
}

// set writes process p's state into row i of the columns: the one step
// by which both kernel constructors fill the kernel.
func (k *kernel) set(i int, p *Proc) {
	k.b[i] = int8(p.b)
	k.st[i] = int8(p.st)
	k.decided[i] = p.decided
	k.hasDecided[i] = p.hasDecided
	k.decision[i] = int8(p.decision)
	k.floodMask[i] = int8(p.floodMask)
	k.floodLeft[i] = int32(p.floodLeft)
	k.histLen[i] = int32(len(p.nHist))
	k.h1[i], k.h2[i], k.h3[i] = histWindow(p.nHist, p.n)
	k.streams[i] = p.rng
}

// histWindow extracts the last three history entries (newest first),
// padding missing rounds with the N^{r<=0} = n convention.
func histWindow(nHist []int, n int) (h1, h2, h3 int32) {
	h1, h2, h3 = int32(n), int32(n), int32(n)
	if l := len(nHist); l >= 1 {
		h1 = int32(nHist[l-1])
		if l >= 2 {
			h2 = int32(nHist[l-2])
		}
		if l >= 3 {
			h3 = int32(nHist[l-3])
		}
	}
	return h1, h2, h3
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

// round is Proc.Round for process i on columns: the branch structure
// (and rng consumption) is identical.
func (k *kernel) round(i, r int, t *sim.TallyColumns) (int64, bool) {
	if stage(k.st[i]) == stageDone {
		return 0, false
	}
	if r == 1 {
		return plainPayload(int(k.b[i])), true
	}
	switch stage(k.st[i]) {
	case stageProb:
		return k.probRound(i, r-1, t)
	case stageWarmup:
		m := valueMaskOf(int(k.b[i])) | t.WitnessedMask(i)
		k.floodMask[i] = int8(m)
		k.st[i] = int8(stageFlood)
		return floodPayload(m), true
	case stageFlood:
		m := int64(k.floodMask[i]) | t.WitnessedMask(i)
		k.floodMask[i] = int8(m)
		k.floodLeft[i]--
		if k.floodLeft[i] <= 0 {
			k.haltProc(i, floodDecision(m))
			return 0, false
		}
		return floodPayload(m), true
	}
	return 0, false
}

// probRound is Proc.probRound on columns: one iteration of the
// pseudocode's main loop for exchange round rr, whose delivered
// aggregates are t's row i.
func (k *kernel) probRound(i, rr int, t *sim.TallyColumns) (int64, bool) {
	ones, zeros := int(t.Ones[i]), int(t.Zeros[i])
	b := int(k.b[i])
	if b == 1 {
		ones++
	} else {
		zeros++
	}
	nn := int(t.Count[i]) + 1

	// Slide the history window (the object path's nHist append); the
	// checks below read the pre-append values N^{rr-1..rr-3}.
	oldH1, oldH2, oldH3 := k.h1[i], k.h2[i], k.h3[i]
	k.h1[i], k.h2[i], k.h3[i] = int32(nn), oldH1, oldH2
	k.histLen[i]++
	if int(k.histLen[i]) != rr {
		// Defensive, mirroring the object path's alignment panic.
		panic(fmt.Sprintf("core: kernel history misaligned: %d entries at round %d", k.histLen[i], rr))
	}

	// IF (N_i^r < sqrt(n/log n)): switch to the deterministic protocol.
	if float64(nn) < k.q {
		k.st[i] = int8(stageWarmup)
		return plainPayload(b), true
	}

	// IF (decided = TRUE): diff = N^{r-3} − N^r; stop if diff ≤ N^{r-2}/10.
	if k.decided[i] {
		diff := int(oldH3) - nn
		if 10*diff <= int(oldH2) {
			k.haltProc(i, b)
			return 0, false
		}
		k.decided[i] = false
	}

	// Threshold cascade against N' = N_i^{r-1}.
	nPrev := int(oldH1)
	switch {
	case 10*ones > 7*nPrev:
		b = 1
		k.decided[i] = true
	case 10*ones > 6*nPrev:
		b = 1
	case !k.opts.SymmetricCoin && zeros == 0:
		b = 1
	case 10*ones < 4*nPrev:
		b = 0
		k.decided[i] = true
	case 10*ones < 5*nPrev:
		b = 0
	default:
		if k.opts.SharedCoinSeed != 0 {
			b = sharedCoin(k.opts.SharedCoinSeed, rr)
		} else {
			b = k.streams[i].Bit()
		}
	}
	k.b[i] = int8(b)
	return plainPayload(b), true
}

func (k *kernel) haltProc(i, v int) {
	k.decision[i] = int8(v)
	k.hasDecided[i] = true
	k.st[i] = int8(stageDone)
}

// KernelClass implements sim.TallyKernel: the classification countValues
// and absorb apply per message, as a pure function of the payload.
func (k *kernel) KernelClass(p int64) (one, mz, mo bool) {
	return classifyPayload(p)
}

// KernelDecided implements sim.TallyKernel.
func (k *kernel) KernelDecided(i int) (int, bool) {
	return int(k.decision[i]), k.hasDecided[i]
}

// KernelStopped implements sim.TallyKernel.
func (k *kernel) KernelStopped(i int) bool { return stage(k.st[i]) == stageDone }

// KernelBookkeep implements sim.TallyKernel: the end-of-round
// decided/stopped sweep over the alive, non-corrupt words, one call
// instead of two interface dispatches per live process.
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
			i := wi<<6 | b
			if !k.hasDecided[i] {
				allDecided = false
			}
			if stage(k.st[i]) == stageDone {
				hw |= 1 << uint(b)
			}
		}
		halted.SetWord(wi, hw)
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
		for w := alive.Word(wi) &^ corrupt.Word(wi); w != 0; w &= w - 1 {
			i := wi<<6 | bits.TrailingZeros64(w)
			if !k.hasDecided[i] {
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

// KernelReseed implements sim.TallyKernel, matching Proc.Reseed.
func (k *kernel) KernelReseed(i int, seed uint64) { k.streams[i].Reseed(seed) }

// KernelClone implements sim.TallyKernel.
func (k *kernel) KernelClone() sim.TallyKernel {
	c := &kernel{n: k.n, opts: k.opts, q: k.q}
	k.KernelCopyInto(c)
	return c
}

// KernelCopyInto implements sim.TallyKernel: overwrite dst reusing its
// column storage (the arena-snapshot hot path — a handful of flat
// copies instead of n ProcessCopier calls).
func (k *kernel) KernelCopyInto(dst sim.TallyKernel) bool {
	d, ok := dst.(*kernel)
	if !ok {
		return false
	}
	d.n, d.opts, d.q = k.n, k.opts, k.q
	d.b = append(d.b[:0], k.b...)
	d.st = append(d.st[:0], k.st...)
	d.decided = append(d.decided[:0], k.decided...)
	d.hasDecided = append(d.hasDecided[:0], k.hasDecided...)
	d.decision = append(d.decision[:0], k.decision...)
	d.floodMask = append(d.floodMask[:0], k.floodMask...)
	d.floodLeft = append(d.floodLeft[:0], k.floodLeft...)
	d.histLen = append(d.histLen[:0], k.histLen...)
	d.h1 = append(d.h1[:0], k.h1...)
	d.h2 = append(d.h2[:0], k.h2...)
	d.h3 = append(d.h3[:0], k.h3...)
	d.streams = append(d.streams[:0], k.streams...)
	return true
}

// KernelProcess implements sim.TallyKernel: a fresh Proc holding
// process i's current state.
func (k *kernel) KernelProcess(i int) sim.Process {
	p := new(Proc)
	k.get(i, p, make([]int, k.histLen[i]))
	return p
}

// KernelProcs implements sim.TallyKernel: the whole vector as one block
// of Procs, their histories cut from one shared block.
func (k *kernel) KernelProcs() []sim.Process {
	total := 0
	for _, l := range k.histLen {
		total += int(l)
	}
	hist := make([]int, total)
	block := make([]Proc, len(k.b))
	procs := make([]sim.Process, len(k.b))
	for i := range block {
		l := int(k.histLen[i])
		k.get(i, &block[i], hist[:l:l])
		hist = hist[l:]
		procs[i] = &block[i]
	}
	return procs
}

// get writes row i of the columns into p in object form, with hist
// (length histLen[i]) as its history: the inverse of set. The rebuilt
// history has the right length and a correct 3-entry tail; older
// entries are padded with n, which the protocol never reads again
// (probRound only looks back three rounds), so the Proc continues
// bit-identically on the object path.
func (k *kernel) get(i int, p *Proc, hist []int) {
	*p = Proc{
		id: i, n: k.n, opts: k.opts, q: k.q, rng: k.streams[i],
		b:          int(k.b[i]),
		st:         stage(k.st[i]),
		decided:    k.decided[i],
		hasDecided: k.hasDecided[i],
		decision:   int(k.decision[i]),
		floodMask:  int64(k.floodMask[i]),
		floodLeft:  int(k.floodLeft[i]),
	}
	l := len(hist)
	if l == 0 {
		return // nil, as NewProcs leaves it: allocated at the first probabilistic round
	}
	for j := 0; j < l-3; j++ {
		hist[j] = k.n
	}
	hist[l-1] = int(k.h1[i])
	if l >= 2 {
		hist[l-2] = int(k.h2[i])
	}
	if l >= 3 {
		hist[l-3] = int(k.h3[i])
	}
	p.nHist = hist
}
