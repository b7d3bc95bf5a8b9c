package main

import (
	"fmt"
	"runtime"
	"time"
)

// serial is a closed-loop workload with one client: op i starts when op
// i-1 has finished. The op's own parallelism (valency rollout workers,
// the experiment trial pool) is bounded by nproc inside the op.
type serial[O comparable] struct {
	// setup builds the inputs and warms up; rep counts the repetitions
	// the untraced run makes so setup_s can report a median.
	setup func(rep int) error
	// op is the untraced op; it times its own measured part (excluding
	// result checking), inside d's runtime sampling when d is non-nil.
	op func(i int, d *runtimeDelta) (O, time.Duration, error)
	// traced is the same op with spans; it returns per-op layer counts.
	traced func(rec *recorder, i int) (O, map[string]float64, error)
	// check validates op i's output.
	check func(i int, o O) error
	// layers adds workload-specific layer metrics after a traced run.
	layers func(m map[string]float64, ops int)
	// gcBetween collects the previous op's garbage before each op, outside
	// the timed part, so a long op starts from the clean heap a fresh
	// process would give it instead of paying for its predecessor's GC.
	gcBetween bool
}

// settle runs before each op.
func (s serial[O]) settle() {
	if s.gcBetween {
		runtime.GC()
	}
}

const setupReps = 5

// timeSetup runs setup setupReps times, each from a collected heap, and
// returns the median duration.
func timeSetup(b *bench, setup func(rep int) error) float64 {
	var ds []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		err := setup(rep)
		ds = append(ds, time.Since(t0).Seconds())
		if err != nil {
			b.fail(-1, fmt.Errorf("set-up: %w", err))
		}
	}
	return median(ds)
}

func (s serial[O]) untraced(b *bench) {
	setup := timeSetup(b, s.setup)
	var lats []float64
	var busy time.Duration
	deadline := time.Now().Add(b.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		s.settle()
		o, took, err := s.op(i, nil)
		lats = append(lats, took.Seconds()*1e3)
		busy += took
		if err == nil {
			err = s.check(i, o)
		}
		b.attempt(i, err)
	}
	b.endToEnd(lats, busy, setup)
}

// tracedRun pairs every traced op with the untraced op on the same
// index: the two outputs must be equal, the untraced one supplies the
// runtime samples, and the pair's time ratio is the tracing overhead.
func (s serial[O]) tracedRun(b *bench) {
	if err := s.setup(0); err != nil {
		b.fail(-1, fmt.Errorf("set-up: %w", err))
	}
	ld := newLedger()
	var rt runtimeDelta
	var plain time.Duration
	deadline := time.Now().Add(b.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		s.settle()
		rec := newRecorder(i)
		to, counts, terr := s.traced(rec, i)
		lerr := ld.add(rec, counts)
		s.settle()
		po, took, err := s.op(i, &rt)
		plain += took
		switch {
		case terr != nil:
			err = fmt.Errorf("traced: %w", terr)
		case err != nil:
		case to != po:
			err = fmt.Errorf("traced and untraced outputs differ")
		case lerr != nil:
			err = lerr
		default:
			err = s.check(i, po)
		}
		b.attempt(i, err)
	}
	m := layerMetrics(ld, &rt)
	w := float64(b.workers)
	// The pool inside a serial op is invisible from outside, so busy time
	// is the CPU time the process spent during the untraced ops.
	m["trials.busy_ratio"] = ratio(rt.cpu, w*rt.wall)
	m["trials.idle_s"] = ratio(w*rt.wall-rt.cpu, float64(rt.ops))
	m["trace.overhead_ratio"] = ratio(plain.Seconds(), float64(ld.opNs)/1e9)
	if s.layers != nil {
		s.layers(m, ld.ops)
	}
	b.layers(ld, m)
}
