package sim

import (
	"fmt"
	"math/bits"

	"synran/internal/wire"
)

// This file is the structure-of-arrays (SoA) backend of the engine: the
// columnar core every kernel-capable execution runs on unless
// Config.Engine pins EngineObject. Instead of materializing
// per-receiver inboxes ([]Recv per process per round), the engine keeps
// one set of per-receiver tally columns and computes them with
// whole-vector sweeps: full-broadcast totals once per round, a
// self-exclusion pass, and one popcount/word sweep per distinct delivery
// mask. Protocols participate through a TallyKernel — a columnar state
// machine that advances every process of a round in one call — which
// core and floodset build for SynRan, FloodSet and its
// omission-tolerant variant, straight from a vector's parameters or by
// adopting a handed-in process vector. A columnar execution holds no
// process objects: Process(i) builds one from the kernel when called.
// Everything else (crash validity rules, the end-of-round bookkeeping
// pass with its observer events and metrics, Result) is shared with the
// object path, and the conformance harness pins byte-identical behavior
// between the two engines on every case.
//
// Every per-process flag (alive, halted, corrupt, decided, stopped,
// sending, active, eligible) is a packed BitSet column, and every
// per-round loop visits a column's set bits word by word, so a round
// costs O(n/64 + members): once SynRan's flood stage leaves a few
// survivors of n, a round no longer touches all n processes.
//
// Aliasing contract (extends the arena rules in DESIGN.md): the tally
// columns, the flag columns, and the delivery scratch masks are
// engine-owned. Adversary plan masks are only read during the
// FinishRound call they were passed to: the object core copies each
// victim's mask into its own deliverScratch slot instead of cloning it
// per plan, and the columnar core groups victims sharing one adversary
// mask pointer, copying that mask once, so a shared rescue mask costs
// one sweep total.

// Engine names accepted by Config.Engine. The zero value "" is the
// default: the columnar core for a kernel built by a protocol's kernel
// constructor or adopted from a handed-in vector by procs[0]'s
// KernelBuilder, the object core otherwise.
const (
	// EngineObject pins the original object-per-process,
	// inbox-per-receiver core, the reference path; it runs every Process
	// implementation.
	EngineObject = "object"
	// EngineSoA is another spelling of the default. The columnar core
	// engages only when the process vector offers a TallyKernel (core
	// SynRan without the LeaderCoin option or an injected coin, FloodSet,
	// omitflood); otherwise the execution silently runs the object path
	// with identical results.
	EngineSoA = "soa"
)

// ValidEngine returns nil iff name is an accepted Config.Engine value
// ("", EngineObject, or EngineSoA). It is the single source of truth for
// engine-name validation: flag parsing (internal/cli), scenario
// validation (internal/scenario), and the conformance case parser all
// delegate here instead of re-encoding the name list.
func ValidEngine(name string) error {
	if name == "" || name == EngineObject || name == EngineSoA {
		return nil
	}
	return fmt.Errorf("sim: unknown engine %q (want %q or %q)", name, EngineObject, EngineSoA)
}

// TallyColumns are the per-receiver delivery aggregates of one exchange
// round, the SoA replacement for materialized inboxes. For receiver j:
// Ones/Zeros count delivered messages by the kernel's KernelClass vote
// (one or not); Count is the number of delivered messages
// (len(inbox)); MaskZero/MaskOne count delivered messages whose
// witnessed-value set contains 0 resp. 1, so the flood-stage union is
// WitnessedMask(j). Counts (not booleans) are stored for the mask bits
// because the self-exclusion and mask sweeps need subtraction, which a
// plain OR does not support.
type TallyColumns struct {
	Ones, Zeros, Count []int32
	MaskZero, MaskOne  []int32
}

func (t *TallyColumns) resize(n int) {
	t.Ones = resizeInt32s(t.Ones, n)
	t.Zeros = resizeInt32s(t.Zeros, n)
	t.Count = resizeInt32s(t.Count, n)
	t.MaskZero = resizeInt32s(t.MaskZero, n)
	t.MaskOne = resizeInt32s(t.MaskOne, n)
}

func (t *TallyColumns) copyFrom(src *TallyColumns) {
	t.Ones = append(t.Ones[:0], src.Ones...)
	t.Zeros = append(t.Zeros[:0], src.Zeros...)
	t.Count = append(t.Count[:0], src.Count...)
	t.MaskZero = append(t.MaskZero[:0], src.MaskZero...)
	t.MaskOne = append(t.MaskOne[:0], src.MaskOne...)
}

func resizeInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// WitnessedMask folds receiver i's mask-bit counts into the
// witnessed-value set (wire.MaskZero | wire.MaskOne bits) its delivered
// messages union to — the flood-stage fold every kernel shares.
func (t *TallyColumns) WitnessedMask(i int) int64 {
	var m int64
	if t.MaskZero[i] > 0 {
		m |= wire.MaskZero
	}
	if t.MaskOne[i] > 0 {
		m |= wire.MaskOne
	}
	return m
}

// TallyKernel is a columnar protocol state machine: the whole process
// vector's state held as flat arrays, advanced one round per call. It is
// the protocol half of the SoA engine; core and floodset build one
// from (n, inputs, seed), and core.Proc and floodset.Proc adopt a
// kernel-capable vector into one (via KernelBuilder).
//
// Determinism contract: a kernel must behave bit-identically to driving
// the process vector it stands for through the object path — same
// payloads, same decisions, same rng consumption. The conformance
// differential lane enforces this on every case.
//
// A kernel process decides exactly when it stops, so the stopped column
// KernelRound writes is also the engine's decided column, and the
// engine's one bookkeeping pass reads it on both cores. The flag
// arguments are the engine's packed columns (capacity n, see BitSet);
// kernels visit their set bits word by word, so a round costs
// O(n/64 + members) however few processes remain.
type TallyKernel interface {
	// KernelRound runs Phase A of round r for every process i in active,
	// reading its delivery tally from t (unread when r == 1) and writing
	// payloads[i], sending's bit i and stopped's bit i (whether the
	// process has stopped, and so decided, by the end of the round).
	// Inactive processes' entries are left untouched.
	KernelRound(r int, active *BitSet, t *TallyColumns, payloads []int64, sending, stopped *BitSet)
	// KernelClass classifies a wire payload the way the protocol's
	// object form folds its inbox: one is whether it counts as a one
	// (else a zero), mz/mo whether the payload's witnessed-value set
	// contains 0 resp. 1. It must be a pure function; the engine
	// memoizes it per payload value.
	KernelClass(payload int64) (one, mz, mo bool)
	// KernelDecision returns stopped process i's decision, the value
	// Process.Decided reports for it.
	KernelDecision(i int) int
	// KernelReseed mirrors Reseeder.Reseed for process i.
	KernelReseed(i int, seed uint64)
	// KernelCopyInto returns a deep copy of the kernel: dst overwritten,
	// its storage reused, when it is a kernel of the same type, else a
	// fresh kernel (dst may be nil).
	KernelCopyInto(dst TallyKernel) TallyKernel
	// KernelProcess builds the object form of process i from its current
	// columnar state: a fresh process the caller owns, which continues
	// exactly as process i would. The full-information Process accessor
	// returns it.
	KernelProcess(i int) Process
	// KernelProcs builds the object form of the whole vector from the
	// current state, as one block: the Byzantine fall-back's process
	// vector, and the vector a kernel execution pinned to the object core
	// runs.
	KernelProcs() []Process
}

// CoinCounter is an optional TallyKernel extension. KernelCoins returns
// how many random draws the kernel has made from its processes' coin
// streams so far, a running count that KernelCopyInto copies; a kernel
// that draws none may report 0. ReseedProcesses records it, so
// DrewSinceReseed can tell a rollout that drew nothing.
type CoinCounter interface {
	KernelCoins() int
}

// KernelBuilder is implemented by processes that can adopt a whole
// process vector into a TallyKernel. Reset probes procs[0]; a nil
// kernel (vector not kernel-capable) falls back to the object path.
// Protocols with a kernel also offer a constructor that builds it
// straight from the vector's parameters, with no process objects; run
// paths hand that kernel to NewKernelExecution.
type KernelBuilder interface {
	BuildKernel(procs []Process) TallyKernel
}

// soaClass is the memoized KernelClass result for one payload value.
type soaClass struct {
	one, mz, mo bool
}

// soaGroup accumulates the victims of one round that share a delivery
// mask pointer: their final messages are applied to the mask's eligible
// receivers in a single word sweep, whatever the group's size. orig is
// the adversary's mask pointer (the grouping key, only compared, never
// read after the crash loop); mask is the engine-owned copy, taken once
// per group so a mass-crash plan with one shared mask costs one copy,
// not one per victim. delivered memoizes mask.Count() for OnCrash.
type soaGroup struct {
	orig                     *BitSet
	mask                     *BitSet
	ones, zeros, mz, mo, cnt int32
	delivered                int
}

// columnar reports whether cfg runs a kernel-capable vector on the
// columnar core: every engine but EngineObject. It is the one engine
// check of both routes into an execution, Reset's and
// NewKernelExecution's.
func (cfg Config) columnar() bool { return cfg.Engine != EngineObject }

// adopt puts the execution on the columnar core with k as its whole
// process state: the execution holds no process objects from here on.
// Both routes into the columnar core end here, a handed-in vector
// through Reset and a constructed kernel through NewKernelExecution.
func (e *Execution) adopt(k TallyKernel) {
	e.procs = nil
	e.kernel = k
	e.tallyMode = true
	n := e.cfg.N
	e.cols.resize(n)
	for i := 0; i < n; i++ {
		e.cols.Ones[i] = 0
		e.cols.Zeros[i] = 0
		e.cols.Count[i] = 0
		e.cols.MaskZero[i] = 0
		e.cols.MaskOne[i] = 0
	}
	for v := int64(0); v < int64(len(e.classTab)); v++ {
		one, mz, mo := k.KernelClass(v)
		e.classTab[v] = soaClass{one: one, mz: mz, mo: mo}
	}
}

// runObjects puts the execution on the object core over procs and
// sizes the object core's buffers, inboxes reserved.
func (e *Execution) runObjects(procs []Process) {
	e.procs = procs
	e.tallyMode = false
	e.sizeObjectCore(true)
}

// leaveTallyMode builds the whole process vector from the kernel, once,
// and drops to the object path permanently (used when a Byzantine
// forgery arrives: corruption needs per-receiver payloads, which
// columns cannot carry). It sizes the object core's buffers, which
// tally mode leaves unsized; the inboxes grow lazily from the next
// Phase B on.
func (e *Execution) leaveTallyMode() {
	e.procs = e.kernel.KernelProcs()
	e.sizeObjectCore(false)
	e.tallyMode = false
}

// classify returns the memoized payload class.
func (e *Execution) classify(p int64) soaClass {
	if p >= 0 && p < int64(len(e.classTab)) {
		return e.classTab[p]
	}
	one, mz, mo := e.kernel.KernelClass(p)
	return soaClass{one: one, mz: mz, mo: mo}
}

// deliverSlot copies mask (nil = deliver to no one) into victim v's
// persistent scratch BitSet and returns it. This replaces the per-plan
// Deliver.Clone() allocation: the engine owns the slot, so the
// adversary is free to reuse or mutate its own mask after FinishRound
// returns. TestFinishRoundDeliverAllocs pins the zero-alloc property.
func (e *Execution) deliverSlot(v int, mask *BitSet) *BitSet {
	s := e.deliverScratch[v]
	if s == nil {
		s = NewBitSet(e.cfg.N)
		e.deliverScratch[v] = s
	}
	if mask != nil {
		s.CopyFrom(mask)
	} else {
		s.Reset(e.cfg.N)
	}
	return s
}

// groupSlot copies mask into the gi-th per-group scratch slot. The
// columnar path copies one slot per distinct crash-plan mask, so the
// adversary can reuse its mask buffers after FinishRound returns (the
// ReusableAdversary contract) without the engine paying a per-victim
// copy.
func (e *Execution) groupSlot(gi int, mask *BitSet) *BitSet {
	for gi >= len(e.groupScratch) {
		e.groupScratch = append(e.groupScratch, NewBitSet(e.cfg.N))
	}
	s := e.groupScratch[gi]
	s.CopyFrom(mask)
	return s
}

// groupVictim is recordDelivery on the columnar core. A victim whose
// final message still reaches someone joins the group of this round's
// victims sharing its adversary mask pointer; each distinct mask is
// copied into engine scratch ONCE per group, so a mass-crash plan
// sharing one mask costs O(n/64) total, not O(victims·n/64). A victim
// delivering to no one (not sending, or a nil mask) joins no group.
func (e *Execution) groupVictim(v int, mask *BitSet) int {
	if !e.sending.Get(v) || mask == nil {
		return 0
	}
	gi := -1
	for g := range e.victimGroups {
		if e.victimGroups[g].orig == mask {
			gi = g
			break
		}
	}
	if gi < 0 {
		cp := e.groupSlot(len(e.victimGroups), mask)
		e.victimGroups = append(e.victimGroups, soaGroup{orig: mask, mask: cp, delivered: cp.Count()})
		gi = len(e.victimGroups) - 1
	}
	g := &e.victimGroups[gi]
	c := e.classify(e.payloads[v])
	g.cnt++
	if c.one {
		g.ones++
	} else {
		g.zeros++
	}
	if c.mz {
		g.mz++
	}
	if c.mo {
		g.mo++
	}
	return g.delivered
}

// phaseBTally is the columnar Phase B: it computes every eligible
// receiver's next-round tally as (full-broadcast totals) − (own
// broadcast) + (the groups of this round's victims whose masks name
// it), instead of appending n² inbox entries.
func (e *Execution) phaseBTally() {
	// Eligible receivers — alive && !halted && !corrupt after this
	// round's crashes, exactly the set the object path's delivery loop
	// appends to — computed as act ∧ alive in the same word pass as the
	// full-broadcast totals: act is Phase A's active set, and only alive
	// can have changed since (this round's victims; halting comes
	// after). The totals cover the surviving senders, alive ∧ sending;
	// this round's victims are added back mask-wise by their groups.
	e.eligible.Reset(e.cfg.N)
	ew := e.eligible.words
	alive, act, sending := e.alive.words, e.act.words, e.sending.words
	var fullOnes, fullZeros, fullMZ, fullMO, fullCnt int32
	for wi, a := range alive {
		ew[wi] = act[wi] & a
		for w := sending[wi] & a; w != 0; w &= w - 1 {
			c := e.classify(e.payloads[wi<<6|bits.TrailingZeros64(w)])
			fullCnt++
			if c.one {
				fullOnes++
			} else {
				fullZeros++
			}
			if c.mz {
				fullMZ++
			}
			if c.mo {
				fullMO++
			}
		}
	}

	// Seed each eligible receiver's tally with the totals minus its own
	// broadcast (processes never receive their own message), sweeping
	// the eligible words so decimated rounds cost O(survivors + n/64).
	// Ineligible slots keep stale columns: eligibility is monotone
	// (alive/halted/corrupt never revert), so the kernel never reads
	// them again.
	for wi, w := range ew {
		sw := sending[wi]
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			j := wi<<6 | b
			ones, zeros, mz, mo, cnt := fullOnes, fullZeros, fullMZ, fullMO, fullCnt
			if sw&(1<<uint(b)) != 0 {
				c := e.classify(e.payloads[j])
				cnt--
				if c.one {
					ones--
				} else {
					zeros--
				}
				if c.mz {
					mz--
				}
				if c.mo {
					mo--
				}
			}
			e.cols.Ones[j] = ones
			e.cols.Zeros[j] = zeros
			e.cols.Count[j] = cnt
			e.cols.MaskZero[j] = mz
			e.cols.MaskOne[j] = mo
			e.messages += int(cnt)
		}
	}

	// Apply each crash group to the eligible receivers inside its mask
	// with one word sweep (mask ∧ eligible), however many victims share
	// the mask.
	for gi := range e.victimGroups {
		g := &e.victimGroups[gi]
		mw := g.mask.words
		lim := min(len(mw), len(ew))
		for wi := 0; wi < lim; wi++ {
			for w := mw[wi] & ew[wi]; w != 0; w &= w - 1 {
				j := wi<<6 | bits.TrailingZeros64(w)
				e.cols.Ones[j] += g.ones
				e.cols.Zeros[j] += g.zeros
				e.cols.Count[j] += g.cnt
				e.cols.MaskZero[j] += g.mz
				e.cols.MaskOne[j] += g.mo
				e.messages += int(g.cnt)
			}
		}
	}
}

// Drive runs the execution under adv to completion exactly as Run does,
// but without assembling a Result. Monte-Carlo rollouts use it with the
// ConsensusValue / HaltRound accessors so look-ahead classification
// allocates nothing per rollout.
func (e *Execution) Drive(adv Adversary) error {
	for !e.Done() {
		if e.round >= e.cfg.MaxRounds {
			return fmt.Errorf("%w (protocol still running after %d rounds, adversary %q)",
				ErrMaxRounds, e.round, adv.Name())
		}
		if err := e.Step(adv); err != nil {
			return err
		}
	}
	return nil
}

// Step runs one round under adv: Phase A, the observer's OnRound, the
// adversary's decisions through Dispatch, and finish. Drive and every
// driver that stops part-way (the conformance fork lanes) loop over it.
func (e *Execution) Step(adv Adversary) error {
	v, err := e.StepPhaseA()
	if err != nil {
		return err
	}
	if obs := e.cfg.Observer; obs != nil {
		obs.OnRound(v.Round, v)
	}
	return e.finish(Dispatch(adv, v))
}

// ConsensusValue returns the surviving processes' common decision value
// (-1 if none survived or agreement failed) without allocating — the
// accessor form of Result().DecidedValue().
func (e *Execution) ConsensusValue() int {
	v := -1
	decided := e.decidedColumn().words
	for k, a := range e.alive.words {
		for w := a &^ e.corrupt.words[k] & decided[k]; w != 0; w &= w - 1 {
			d := e.decision(k<<6 | bits.TrailingZeros64(w))
			if v == -1 {
				v = d
			} else if v != d {
				return -1
			}
		}
	}
	return v
}

// HaltRound returns the round by which every surviving process had
// halted, or 0 while one still runs, without allocating. A round that
// leaves no survivor counts: it is the one whose bookkeeping finds no
// live process active.
func (e *Execution) HaltRound() int { return e.haltRound }
