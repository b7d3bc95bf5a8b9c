package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"synran"
	"synran/internal/trials"
)

// batchPairs are the protocol × adversary pairs batch-object cycles
// through; omitflood runs t+extra+1 = 2t+1 rounds, so it is the slow mode
// of a bimodal latency distribution.
var batchPairs = []struct{ protocol, adversary string }{
	{synran.ProtocolSynRan, synran.AdversarySplitVote},
	{synran.ProtocolSynRan, synran.AdversaryRandom},
	{synran.ProtocolSynRan, synran.AdversaryLateSplit},
	{synran.ProtocolOmitFlood, synran.AdversaryOmissionSplit},
	{synran.ProtocolLateBeacon, synran.AdversaryLateSplit},
}

const (
	batchN, batchT = 128, 42
	// batchSize is the number of ops per DurableWorker batch (50 cycles
	// of batchPairs); each batch journals into its own directory.
	batchSize = 250
)

// batchLoad is one batch-object run: a checkpoint root under buildDir
// and the shared input vector.
type batchLoad struct {
	b      *bench
	root   string
	inputs []int
}

func (w *batchLoad) spec(i int) synran.Spec {
	p := batchPairs[i%len(batchPairs)]
	s := synran.Spec{N: batchN, T: batchT, Inputs: w.inputs, Protocol: p.protocol,
		Adversary: p.adversary, Seed: trials.Seed(w.b.seed, i)}
	if p.protocol == synran.ProtocolOmitFlood {
		s.FaultBudget = batchT
	}
	return s
}

// check is the per-execution output check: safety everywhere, and
// omitflood halting at exactly 2t+2 (it rides out t crashes plus t
// omissions without spending rounds on them).
func (w *batchLoad) check(i int, o outcome) error {
	if err := o.safe(); err != nil {
		return err
	}
	if batchPairs[i%len(batchPairs)].protocol == synran.ProtocolOmitFlood && o.Halt != 2*batchT+2 {
		return fmt.Errorf("omitflood halted after %d rounds, want %d", o.Halt, 2*batchT+2)
	}
	return nil
}

// batchRun is one DurableWorker batch's outputs and timings.
type batchRun struct {
	outs   []outcome
	lats   []time.Duration // per-op latency, measured inside the trial function
	sumErr []error         // per-op layer-sum check failures (traced batches)
	wall   time.Duration
	report trials.DurableReport
	err    error
}

// runBatch runs ops [k·batchSize, (k+1)·batchSize) through
// trials.DurableWorker with nproc workers, journaling into dir (no
// durability when dir is empty). With ld set every op is traced.
func (w *batchLoad) runBatch(k int, dir string, ld *ledger, rt *runtimeDelta) batchRun {
	d := trials.Durability{Dir: dir}
	lats := make([]time.Duration, batchSize)
	sumErr := make([]error, batchSize)
	fn := func(_, j int) (outcome, error) {
		i := k*batchSize + j
		if ld != nil {
			rec := newRecorder(i)
			r, err := runTraced(rec, w.spec(i), nil)
			lats[j] = time.Duration(rec.finish())
			if err != nil {
				return outcome{}, err
			}
			o := summarize(r)
			sumErr[j] = ld.add(rec, simCounts(o))
			return o, nil
		}
		t0 := time.Now()
		r, err := synran.Run(w.spec(i))
		lats[j] = time.Since(t0)
		if err != nil {
			return outcome{}, err
		}
		return summarize(r), nil
	}
	fp := fmt.Sprintf("perfbench batch-object seed=%d batch=%d size=%d", w.b.seed, k, batchSize)
	br := batchRun{lats: lats, sumErr: sumErr}
	br.wall = rt.measure(batchSize, func() {
		br.outs, br.report, br.err = trials.DurableWorker(d, "batch-object", fp, w.b.workers, batchSize, nil, fn)
	})
	if br.err == nil && dir != "" && br.report.Journaled != batchSize {
		br.err = fmt.Errorf("journaled %d of %d shards", br.report.Journaled, batchSize)
	}
	return br
}

// verify applies the output checks to every op of batch k.
func (w *batchLoad) verify(k int, br batchRun) {
	if br.err != nil {
		for j := 0; j < batchSize; j++ {
			w.b.attempt(k*batchSize+j, br.err)
		}
		return
	}
	for j, o := range br.outs {
		err := br.sumErr[j]
		if err == nil {
			err = w.check(k*batchSize+j, o)
		}
		w.b.attempt(k*batchSize+j, err)
	}
}

// batchObject: one op is one n = 128, t = 42 execution run as a shard of
// a trials.DurableWorker batch with a checkpoint directory and nproc
// workers, cycling through batchPairs.
func batchObject(b *bench) {
	w := &batchLoad{b: b}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fatal(err)
	}
	root, err := os.MkdirTemp(buildDir, "journal-")
	if err != nil {
		fatal(err)
	}
	w.root = root
	defer os.RemoveAll(root)

	setup := func(rep int) error {
		w.inputs = synran.HalfHalfInputs(batchN)
		dir := filepath.Join(w.root, fmt.Sprintf("warmup-%d", rep))
		br := w.runBatch(0, dir, nil, nil)
		if br.err == nil {
			for j, o := range br.outs {
				if err := w.check(j, o); err != nil {
					return err
				}
			}
		}
		os.RemoveAll(dir)
		return br.err
	}
	if b.trace {
		w.traced(setup)
		return
	}

	setupS := timeSetup(b, setup)
	var lats, peaks []float64
	var busy time.Duration
	deadline := time.Now().Add(b.seconds)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		// Each batch starts from a heap returned to the OS and with the
		// peak-RSS counter reset, so its peak is its own.
		debug.FreeOSMemory()
		reset := resetPeakRSS()
		dir := filepath.Join(w.root, fmt.Sprintf("batch-%d", k))
		br := w.runBatch(k, dir, nil, nil)
		if mb, ok := hwmMB(); ok && reset {
			peaks = append(peaks, mb)
		}
		busy += br.wall
		for _, l := range br.lats {
			lats = append(lats, l.Seconds()*1e3)
		}
		w.verify(k, br)
		os.RemoveAll(dir)
	}
	b.endToEnd(lats, busy, setupS)
	// The process-wide maximum is one GC-timing extreme over every batch
	// of the run; the median batch peak is the repeatable figure.
	if len(peaks) > 0 {
		b.metrics["peak_rss_mb"] = median(peaks)
		b.notes = append(b.notes, fmt.Sprintf("peak_rss_mb is the median of %d per-batch peaks; process maximum %.3f MB", len(peaks), peakRSSMB()))
	}
}

// traced runs each batch three ways — traced with the journal, untraced
// with the journal, untraced with zero Durability (plain RunWorker) —
// and requires all three to produce the same outcomes. The journal's
// overhead is the wall-time difference of the two untraced batches.
func (w *batchLoad) traced(setup func(int) error) {
	b := w.b
	if err := setup(0); err != nil {
		b.fail(-1, fmt.Errorf("set-up: %w", err))
	}
	ld := newLedger()
	var rt runtimeDelta
	var tracedWall, durableWall, plainWall time.Duration
	var opTime time.Duration
	var appends, journalBytes float64
	batches := 0
	deadline := time.Now().Add(b.seconds)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		tdir := filepath.Join(w.root, fmt.Sprintf("traced-%d", k))
		ddir := filepath.Join(w.root, fmt.Sprintf("durable-%d", k))
		tr := w.runBatch(k, tdir, ld, nil)
		appends += float64(tr.report.Journaled)
		journalBytes += float64(dirBytes(tdir))
		dr := w.runBatch(k, ddir, nil, &rt)
		pr := w.runBatch(k, "", nil, nil)
		os.RemoveAll(tdir)
		os.RemoveAll(ddir)

		batches++
		tracedWall += tr.wall
		durableWall += dr.wall
		plainWall += pr.wall
		for _, l := range dr.lats {
			opTime += l
		}
		for _, br := range []batchRun{tr, dr, pr} {
			if br.err != nil {
				tr.err = br.err
			}
		}
		if tr.err == nil {
			for j := range tr.outs {
				if tr.outs[j] != dr.outs[j] || tr.outs[j] != pr.outs[j] {
					tr.err = fmt.Errorf("op %d: traced, durable and plain RunWorker outcomes differ", k*batchSize+j)
					break
				}
			}
		}
		w.verify(k, tr)
	}

	m := layerMetrics(ld, &rt)
	workers := float64(b.workers)
	ops := float64(rt.ops)
	m["trials.busy_ratio"] = ratio(opTime.Seconds(), workers*durableWall.Seconds())
	m["trials.idle_s"] = ratio(workers*durableWall.Seconds()-opTime.Seconds(), ops)
	m["journal.appends"] = ratio(appends, float64(batches))
	m["journal.bytes"] = ratio(journalBytes, float64(batches))
	m["journal.overhead_s"] = ratio((durableWall - plainWall).Seconds(), ops)
	m["trace.overhead_ratio"] = ratio(durableWall.Seconds(), tracedWall.Seconds())
	b.layers(ld, m)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
