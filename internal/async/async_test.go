package async

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"synran/internal/rng"
)

func mkBenOr(t *testing.T, n, tt int, inputs []int, mode CoinMode, seed uint64) []Process {
	t.Helper()
	procs, err := NewBenOrProcs(n, tt, inputs, mode, seed)
	if err != nil {
		t.Fatal(err)
	}
	return procs
}

func runAsync(t *testing.T, n, tt int, inputs []int, mode CoinMode, sched Scheduler, seed uint64, maxSteps int) (*Result, error) {
	t.Helper()
	procs := mkBenOr(t, n, tt, inputs, mode, seed)
	exec, err := NewExecution(Config{N: n, T: tt, MaxSteps: maxSteps}, procs, inputs, seed)
	if err != nil {
		t.Fatal(err)
	}
	return exec.Run(sched)
}

func half(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i % 2
	}
	return in
}

func uniform(n, v int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = v
	}
	return in
}

func TestPackUnpack(t *testing.T) {
	for _, typ := range []int{typeReport, typePropose, typeDecide} {
		for _, phase := range []int{1, 7, 1000} {
			for _, val := range []int{0, 1, valBottom} {
				ty, p, v := Unpack(Pack(typ, phase, val))
				if ty != typ || p != phase || v != val {
					t.Fatalf("roundtrip (%d,%d,%d) -> (%d,%d,%d)", typ, phase, val, ty, p, v)
				}
			}
		}
	}
}

func TestBenOrValidation(t *testing.T) {
	if _, err := NewBenOr(0, 4, 2, 0, CoinRandom, nil); err == nil {
		t.Fatal("t >= n/2 must be rejected")
	}
	if _, err := NewBenOrProcs(4, 1, []int{2, 0, 0, 0}, CoinRandom, 1); err == nil {
		t.Fatal("bad input must be rejected")
	}
}

func TestExecutionValidation(t *testing.T) {
	procs := mkBenOr(t, 4, 1, uniform(4, 0), CoinRandom, 1)
	if _, err := NewExecution(Config{N: 5, T: 1}, procs, uniform(4, 0), 1); err == nil {
		t.Fatal("size mismatch must be rejected")
	}
	if _, err := NewExecution(Config{N: 4, T: 4}, procs, uniform(4, 0), 1); err == nil {
		t.Fatal("T >= N must be rejected")
	}
	// A negative cap would end every run at step 0 with ErrMaxSteps, which
	// callers count as non-termination: E15's FLP claim would hold vacuously.
	if _, err := NewExecution(Config{N: 4, T: 1, MaxSteps: -1}, procs, uniform(4, 0), 1); err == nil {
		t.Fatal("MaxSteps < 0 must be rejected")
	}
}

func TestUnanimousFIFO(t *testing.T) {
	for _, v := range []int{0, 1} {
		res, err := runAsync(t, 5, 2, uniform(5, v), CoinRandom, FIFO{}, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Agreement || !res.Validity || res.DecidedValue() != v {
			t.Fatalf("all-%d: agreement=%v validity=%v decided=%d",
				v, res.Agreement, res.Validity, res.DecidedValue())
		}
	}
}

func TestSplitInputsTerminateUnderFIFO(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		res, err := runAsync(t, 5, 2, half(5), CoinRandom, FIFO{}, seed, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Agreement {
			t.Fatalf("seed %d: disagreement %v", seed, res.Decisions)
		}
	}
}

func TestAgreementUnderRandomSchedulerWithCrashes(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		res, err := runAsync(t, 7, 3, half(7), CoinRandom,
			&RandomSched{CrashProb: 0.02}, seed, 0)
		if err != nil {
			// A heavily crashed run can starve; safety is the claim.
			if errors.Is(err, ErrMaxSteps) {
				continue
			}
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Agreement || !res.Validity {
			t.Fatalf("seed %d: agreement=%v validity=%v", seed, res.Agreement, res.Validity)
		}
	}
}

func TestFLPDeterministicLoopsForever(t *testing.T) {
	// The FLP demonstration: Ben-Or derandomized with the parity coin,
	// balanced inputs, and the splitter scheduler never decides — the
	// run hits the step cap with every process still alive and undecided.
	_, err := runAsync(t, 4, 1, half(4), CoinParity, NewSplitter(), 1, 4000)
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("deterministic variant terminated under the splitter (err=%v); "+
			"FLP says a non-terminating schedule exists", err)
	}
}

func TestRandomizedEscapesTheSplitter(t *testing.T) {
	// The same scheduler cannot loop the RANDOMIZED protocol forever:
	// with private fair coins, each phase has a positive probability of
	// alignment. (This is exactly the randomization-beats-FLP point.)
	done := 0
	for seed := uint64(0); seed < 5; seed++ {
		res, err := runAsync(t, 4, 1, half(4), CoinRandom, NewSplitter(), seed, 200000)
		if err != nil {
			continue
		}
		done++
		if !res.Agreement {
			t.Fatalf("seed %d: disagreement", seed)
		}
	}
	if done == 0 {
		t.Fatal("randomized Ben-Or never terminated under the splitter in 5 runs")
	}
}

func TestDecideGossipPropagates(t *testing.T) {
	// Crash-reliable flooding: once anyone decides, everyone correct
	// decides the same value even if the original decider halts at once.
	res, err := runAsync(t, 5, 2, uniform(5, 1), CoinRandom, FIFO{}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range res.Decided {
		if !ok {
			t.Fatalf("process %d never decided", i)
		}
		if res.Decisions[i] != 1 {
			t.Fatalf("process %d decided %d", i, res.Decisions[i])
		}
	}
}

func TestFlipsCountedOnlyWhenCoinUsed(t *testing.T) {
	procs := mkBenOr(t, 5, 2, uniform(5, 1), CoinRandom, 1)
	exec, err := NewExecution(Config{N: 5, T: 2}, procs, uniform(5, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(FIFO{}); err != nil {
		t.Fatal(err)
	}
	for i, p := range procs {
		if f := p.(*BenOr).Flips(); f != 0 {
			t.Fatalf("process %d flipped %d coins on unanimous inputs", i, f)
		}
	}
}

func TestSafetyQuickAsync(t *testing.T) {
	f := func(tRaw uint8, bits uint32, seed uint64) bool {
		tt := int(tRaw%3) + 1
		n := 2*tt + 1 + int(bits%3)
		inputs := make([]int, n)
		for i := range inputs {
			inputs[i] = int(bits>>uint(i%32)) & 1
		}
		procs, err := NewBenOrProcs(n, tt, inputs, CoinRandom, seed)
		if err != nil {
			return false
		}
		exec, err := NewExecution(Config{N: n, T: tt}, procs, inputs, seed)
		if err != nil {
			return false
		}
		res, err := exec.Run(&RandomSched{CrashProb: 0.01})
		if err != nil {
			return errors.Is(err, ErrMaxSteps) // starvation is allowed; unsafety is not
		}
		return res.Agreement && res.Validity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// crashingSplitter wraps a Splitter and, once, turns its pick into a
// crash+deliver step whose chosen message dies with the crash: it names
// a pending report message and crashes that message's sender in the same
// Action. The engine must then deliver a DIFFERENT message — the
// scenario where the pre-fix Splitter (recording its choice in Next)
// silently drifted from true deliveries.
type crashingSplitter struct {
	inner   *Splitter
	crashed bool
	reports int // actual report deliveries, counted independently
}

func (c *crashingSplitter) Name() string { return "crashing-splitter" }

func (c *crashingSplitter) Next(v *View) Action {
	act := c.inner.Next(v)
	if !c.crashed && v.Budget > 0 {
		for idx := 0; idx < v.NumPending(); idx++ {
			m := v.Pending(idx)
			typ, _, val := Unpack(m.Payload)
			if typ == typeReport && (val == 0 || val == 1) && v.IsAlive(m.From) {
				c.crashed = true
				return Action{Victim: m.From, Deliver: idx}
			}
		}
	}
	return act
}

func (c *crashingSplitter) Delivered(m Message) {
	typ, _, val := Unpack(m.Payload)
	if typ == typeReport && (val == 0 || val == 1) {
		c.reports++
	}
	c.inner.Delivered(m)
}

func TestSplitterTallyMatchesDeliveries(t *testing.T) {
	// Regression for the Splitter drift bug: force a step that both
	// crashes a victim and had chosen one of the victim's messages, then
	// assert the seen tally equals the report deliveries that actually
	// happened. Before the record-on-delivery fix, the tally counted the
	// chosen (never delivered) message and drifted.
	triggered := false
	for seed := uint64(0); seed < 8; seed++ {
		sched := &crashingSplitter{inner: NewSplitter()}
		_, err := runAsync(t, 5, 2, half(5), CoinRandom, sched, seed, 0)
		if err != nil && !errors.Is(err, ErrMaxSteps) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := sched.inner.RecordedReports(), sched.reports; got != want {
			t.Fatalf("seed %d: splitter tally %d != actual report deliveries %d", seed, got, want)
		}
		triggered = triggered || sched.crashed
	}
	if !triggered {
		t.Fatal("no run ever produced the crash+deliver step; the regression scenario never ran")
	}
}

// vandalSched overwrites the View's scalar fields after making its pick
// — a worst-case buggy scheduler (alive flags, pending messages and
// processes have no writable form). The engine reuses one View per
// execution, so the vandalism must not leak into engine state or into
// the next step's view.
type vandalSched struct{ inner Scheduler }

func (s vandalSched) Name() string { return "vandal" }

func (s vandalSched) Next(v *View) Action {
	act := s.inner.Next(v)
	v.Step, v.Budget = -1, 0
	return act
}

func (s vandalSched) Delivered(m Message) {
	if obs, ok := s.inner.(DeliveryObserver); ok {
		obs.Delivered(m)
	}
}

// deliveryLog records the engine's true delivery sequence (the async
// run digest) while forwarding the callback to the wrapped scheduler.
type deliveryLog struct {
	Scheduler
	log []Message
}

func (d *deliveryLog) Delivered(m Message) {
	if obs, ok := d.Scheduler.(DeliveryObserver); ok {
		obs.Delivered(m)
	}
	d.log = append(d.log, m)
}

func TestMutatingSchedulerDoesNotAffectDigest(t *testing.T) {
	run := func(sched Scheduler) (*deliveryLog, *Result, error) {
		rec := &deliveryLog{Scheduler: sched}
		procs := mkBenOr(t, 5, 2, half(5), CoinRandom, 7)
		exec, err := NewExecution(Config{N: 5, T: 2}, procs, half(5), 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exec.Run(rec)
		return rec, res, err
	}
	for _, mk := range []func() Scheduler{
		func() Scheduler { return FIFO{} },
		func() Scheduler { return NewSplitter() },
		func() Scheduler { return &RandomSched{CrashProb: 0.02} },
	} {
		name := mk().Name()
		clean, cleanRes, cleanErr := run(mk())
		vandal, vandalRes, vandalErr := run(vandalSched{inner: mk()})
		if (cleanErr == nil) != (vandalErr == nil) {
			t.Fatalf("%s: errors diverged: %v vs %v", name, cleanErr, vandalErr)
		}
		if len(clean.log) != len(vandal.log) {
			t.Fatalf("%s: delivery counts diverged: %d vs %d", name, len(clean.log), len(vandal.log))
		}
		for i := range clean.log {
			if clean.log[i] != vandal.log[i] {
				t.Fatalf("%s: delivery %d diverged: %+v vs %+v", name, i, clean.log[i], vandal.log[i])
			}
		}
		if cleanErr == nil && (cleanRes.Steps != vandalRes.Steps ||
			cleanRes.DecidedValue() != vandalRes.DecidedValue() || cleanRes.Crashes != vandalRes.Crashes) {
			t.Fatalf("%s: results diverged: %+v vs %+v", name, cleanRes, vandalRes)
		}
	}
}

func TestSyncRoundSchedulerTerminates(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		res, err := runAsync(t, 5, 2, half(5), CoinRandom, NewSyncRound(), seed, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Agreement || !res.Validity {
			t.Fatalf("seed %d: agreement=%v validity=%v", seed, res.Agreement, res.Validity)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (*Result, error) {
		return runAsync(t, 5, 2, half(5), CoinRandom, &RandomSched{CrashProb: 0.01}, 42, 0)
	}
	a, errA := run()
	b, errB := run()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("replay diverged: %v vs %v", errA, errB)
	}
	if errA == nil && (a.Steps != b.Steps || a.DecidedValue() != b.DecidedValue()) {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
}

// scanPick is the Splitter's pick by a rescan of the whole pending set,
// the rule its index must reproduce: the first message of least score.
func scanPick(s *Splitter, v *View) int {
	bestIdx, bestScore := 0, 1<<30
	for idx := 0; idx < v.NumPending(); idx++ {
		m := v.Pending(idx)
		score := s.score(groupKey{m.To, m.Payload})
		if score < bestScore {
			bestScore, bestIdx = score, idx
			if score == 0 {
				break // nothing scores lower; skip the rest of the scan
			}
		}
	}
	return bestIdx
}

// scanOracle runs a Splitter and checks every pick against scanPick.
// With tell it forwards Delivered; without, the Splitter never hears of
// a delivery. With noise > 0, at that rate per step each, it crashes a
// random live process, so crash compaction and same-step re-picks
// occur, and it delivers a random pending message in place of the pick.
type scanOracle struct {
	inner *Splitter
	tell  bool
	noise float64
	rng   *rng.Stream

	picks, repicks, mismatches int
	lastStep                   int
	first                      string
}

func (o *scanOracle) Name() string { return "scan-oracle" }

func (o *scanOracle) Next(v *View) Action {
	if o.picks > 0 && v.Step == o.lastStep {
		o.repicks++
	}
	o.picks, o.lastStep = o.picks+1, v.Step
	want := scanPick(o.inner, v)
	act := o.inner.Next(v)
	if act.Deliver != want {
		if o.mismatches == 0 {
			o.first = fmt.Sprintf("step %d: index picked %d, scan %d of %d pending",
				v.Step, act.Deliver, want, v.NumPending())
		}
		o.mismatches++
	}
	if o.noise == 0 {
		return act
	}
	if v.Budget > 0 && o.rng.Float64() < o.noise {
		var live []int
		for i := 0; i < v.N; i++ {
			if v.IsAlive(i) {
				live = append(live, i)
			}
		}
		act.Victim = live[o.rng.Intn(len(live))]
	}
	if o.rng.Float64() < o.noise {
		act.Deliver = o.rng.Intn(v.NumPending())
	}
	return act
}

func (o *scanOracle) Delivered(m Message) {
	if o.tell {
		o.inner.Delivered(m)
	}
}

func TestSplitterIndexMatchesScan(t *testing.T) {
	seeds := uint64(12)
	if testing.Short() {
		seeds = 3
	}
	var picks, repicks, halted int
	check := func(label string, o *scanOracle) {
		t.Helper()
		picks += o.picks
		repicks += o.repicks
		if o.mismatches > 0 {
			t.Errorf("%s: %d of %d picks differ from the scan; first at %s",
				label, o.mismatches, o.picks, o.first)
		}
	}
	run := func(n int, mode CoinMode, sched Scheduler, seed uint64) {
		t.Helper()
		tt := (n - 1) / 2
		procs := mkBenOr(t, n, tt, half(n), mode, seed)
		exec, err := NewExecution(Config{N: n, T: tt, MaxSteps: 1500 * n}, procs, half(n), seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Run(sched); err != nil && !errors.Is(err, ErrMaxSteps) {
			t.Fatal(err)
		}
		for _, p := range procs {
			if p.Halted() {
				halted++
			}
		}
	}
	for _, mode := range []CoinMode{CoinParity, CoinRandom} {
		for _, n := range []int{4, 5, 8, 12} {
			for seed := uint64(1); seed <= seeds; seed++ {
				for _, noise := range []float64{0, 0.002} {
					o := &scanOracle{inner: NewSplitter(), tell: true, noise: noise, rng: rng.New(seed)}
					run(n, mode, o, seed)
					check(fmt.Sprintf("coin %d n=%d seed %d noise %.3f", mode, n, seed, noise), o)
				}
			}
		}
	}
	// Foreign views: a Splitter never told of a delivery, and one reused
	// on a second execution, must still pick as the scan does.
	for seed := uint64(1); seed <= seeds; seed++ {
		deaf := &scanOracle{inner: NewSplitter()}
		run(5, CoinRandom, deaf, seed)
		check(fmt.Sprintf("deaf splitter seed %d", seed), deaf)
		reused := &scanOracle{inner: NewSplitter(), tell: true}
		run(5, CoinRandom, reused, seed)
		run(8, CoinParity, reused, seed+100)
		check(fmt.Sprintf("reused splitter seed %d", seed), reused)
	}
	// Hand-built views. The second has the first's Step and Seqs, so only
	// its identity shows that it is another view; then the Splitter hears
	// of a delivery that the view does not reflect.
	hand := NewSplitter()
	pick := func(v *View) {
		t.Helper()
		if got, want := hand.Next(v).Deliver, scanPick(hand, v); got != want {
			t.Errorf("hand-built view %v: index picked %d, scan %d", v.pending, got, want)
		}
	}
	pick(&View{N: 3, T: 1, pending: []Message{
		{Seq: 0, To: 1, Payload: Pack(typeReport, 1, 0)},
		{Seq: 1, To: 2, Payload: Pack(typePropose, 1, valBottom)},
	}})
	v := &View{N: 3, T: 1, pending: []Message{
		{Seq: 0, To: 1, Payload: Pack(typePropose, 1, valBottom)},
		{Seq: 1, To: 2, Payload: Pack(typeReport, 1, 0)},
	}}
	pick(v)
	hand.Delivered(v.Pending(0))
	pick(v)
	t.Logf("%d picks compared, %d re-picks, %d processes halted", picks, repicks, halted)
	if repicks == 0 || halted == 0 {
		t.Fatalf("%d re-picks and %d halts: the compaction paths never ran", repicks, halted)
	}
}
