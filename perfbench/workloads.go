package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"synran"
	"synran/internal/experiments"
	"synran/internal/trials"
)

// canonicalSeed is the seed the checked-in goldens were generated at.
const canonicalSeed = 42

// layerMetrics derives the per-layer metrics every traced run reports
// from its span ledger and the runtime samples of its untraced ops.
// Layers a workload does not reach read 0; workloads overwrite the
// trials, journal, valency and overhead entries they measure.
func layerMetrics(ld *ledger, rt *runtimeDelta) map[string]float64 {
	ops := float64(ld.ops)
	m := map[string]float64{
		"sim.new_execution_s":        ld.perOp("sim.new_execution"),
		"sim.phase_a_s":              ld.perOp("sim.phase_a"),
		"sim.phase_a.share":          ld.share("sim.phase_a"),
		"sim.phase_b_s":              ld.perOp("sim.phase_b"),
		"sim.phase_b.share":          ld.share("sim.phase_b"),
		"sim.result_s":               ld.perOp("sim.result"),
		"sim.rounds":                 ratio(float64(ld.spans["sim.phase_a"]), ops),
		"sim.messages":               ratio(ld.counts["sim.messages"], ops),
		"protocol.setup_s":           ld.perOp("protocol.setup"),
		"adversary.setup_s":          ld.perOp("adversary.setup"),
		"adversary.plan_s":           ld.perOp("adversary.plan"),
		"adversary.plan.share":       ld.share("adversary.plan"),
		"adversary.crashes":          ratio(ld.counts["adversary.crashes"], ops),
		"adversary.demotions":        ratio(ld.counts["adversary.demotions"], ops),
		"valency.rollouts":           0,
		"valency.arena_hit_ratio":    0,
		"journal.appends":            0,
		"journal.bytes":              0,
		"journal.overhead_s":         0,
		"runtime.alloc_bytes_per_op": ratio(rt.allocBytes, float64(rt.ops)),
		"runtime.gc_cycles_per_op":   ratio(rt.gcCycles, float64(rt.ops)),
		// The runtime reports pause time as CPU time across GOMAXPROCS.
		"runtime.gc_pause_s":        ratio(rt.gcPauseCPU/float64(runtime.GOMAXPROCS(0)), float64(rt.ops)),
		"experiments.failed_claims": ratio(ld.counts["experiments.failed_claims"], ops),
		"trace.op_s":                ratio(float64(ld.opNs)/1e9, ops),
		"trace.unattributed_s":      ld.perOp(rootSpan),
		"trace.unattributed.share":  ld.share(rootSpan),
	}
	for _, ex := range experiments.All() {
		m["experiments."+ex.ID+"_s"] = ld.perOp("experiments." + ex.ID)
	}
	return m
}

// simCounts are the per-op layer counts of one execution.
func simCounts(o outcome) map[string]float64 {
	return map[string]float64{
		"sim.messages":        float64(o.Messages),
		"adversary.crashes":   float64(o.Crashes),
		"adversary.demotions": float64(o.Demoted),
	}
}

// plainOp times one untraced synran.Run; summarizing the result for the
// checks happens outside the timed part.
func plainOp(spec synran.Spec, d *runtimeDelta) (outcome, time.Duration, error) {
	var r *synran.Result
	var err error
	took := d.measure(1, func() { r, err = synran.Run(spec) })
	if err != nil {
		return outcome{}, took, err
	}
	return summarize(r), took, nil
}

// tracedOp is plainOp through the traced driver.
func tracedOp(rec *recorder, spec synran.Spec, me *synran.MetricsEngine) (outcome, map[string]float64, error) {
	r, err := runTraced(rec, spec, me)
	rec.finish()
	if err != nil {
		return outcome{}, nil, err
	}
	o := summarize(r)
	return o, simCounts(o), nil
}

// specSerial is a serial workload whose op i runs spec(i).
func specSerial(spec func(i int) synran.Spec, warmup func() error, me *synran.MetricsEngine) serial[outcome] {
	return serial[outcome]{
		setup: func(int) error { return warmup() },
		op: func(i int, d *runtimeDelta) (outcome, time.Duration, error) {
			return plainOp(spec(i), d)
		},
		traced: func(rec *recorder, i int) (outcome, map[string]float64, error) {
			return tracedOp(rec, spec(i), me)
		},
		check: func(_ int, o outcome) error { return o.safe() },
	}
}

func (s serial[O]) run(b *bench) {
	if b.trace {
		s.tracedRun(b)
	} else {
		s.untraced(b)
	}
}

// scaleN is the scale-soa system size: E17's paper-scale regime.
const scaleN = 1_000_000

// scaleSOA: one op is one synran.Run of SynRan on the SoA engine at
// n = 10^6, t = n-1, SplitVote, half/half inputs, run serially — E17's
// regime, and the traced run's phase A / Plan / phase B shares at paper
// scale. It is not in BENCHMARK.json: its op streams ~680 MB through
// memory, and on a shared 2-core x86 VM its run medians spread by 21%
// (IQR over median, ten seeds) against the 25% bound cap, while the
// cache-resident workloads spread by under 5%. Its layers are gated on
// batch-object; run it with -workload scale-soa or -workload all.
func scaleSOA(b *bench) {
	var inputs []int
	spec := func(n int, in []int, seed uint64) synran.Spec {
		return synran.Spec{N: n, T: n - 1, Inputs: in, Protocol: synran.ProtocolSynRan,
			Adversary: synran.AdversarySplitVote, Engine: "soa", Seed: seed}
	}
	warmup := func() error {
		inputs = synran.HalfHalfInputs(scaleN)
		// A 2·10^5 execution pages in the engine without paying a full
		// paper-scale op per set-up repetition.
		const n = scaleN / 5
		o, _, err := plainOp(spec(n, synran.HalfHalfInputs(n), b.seed), nil)
		if err == nil {
			err = o.safe()
		}
		return err
	}
	s := specSerial(func(i int) synran.Spec { return spec(scaleN, inputs, trials.Seed(b.seed, i)) }, warmup, nil)
	s.gcBetween = true
	s.run(b)
}

// lookaheadConfigs are E6's sizes under the two valency adversaries.
var lookaheadConfigs = []struct {
	adversary string
	n         int
}{
	{synran.AdversaryLowerBound, 12},
	{synran.AdversaryLowerBound, 16},
	{synran.AdversaryStepwise, 12},
}

// lookahead: one op is one execution under a valency adversary on the
// object engine, cycling through lookaheadConfigs.
func lookahead(b *bench) {
	spec := func(i int) synran.Spec {
		c := lookaheadConfigs[i%len(lookaheadConfigs)]
		return synran.Spec{N: c.n, T: c.n - 1, Inputs: synran.HalfHalfInputs(c.n),
			Adversary: c.adversary, Seed: trials.Seed(b.seed, i)}
	}
	warmup := func() error {
		for i := 0; i < 10*len(lookaheadConfigs); i++ {
			o, _, err := plainOp(spec(i), nil)
			if err == nil {
				err = o.safe()
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	me := synran.NewMetricsEngine(b.workers)
	s := specSerial(spec, warmup, me)
	s.layers = func(m map[string]float64, ops int) {
		reg := me.Registry().Report(true)
		hits, misses := float64(reg.Counter("arena_hits")), float64(reg.Counter("arena_misses"))
		m["valency.rollouts"] = ratio(float64(reg.Counter("valency_rollouts")), float64(ops))
		m["valency.arena_hit_ratio"] = ratio(hits, hits+misses)
	}
	s.run(b)
}

// quickOut is one RunAll's rendered tables and whether a claim failed.
type quickOut struct {
	Text         string
	ClaimsFailed bool
}

// quickSeeds is the size of the experiment-seed panel the out-of-sample
// paper-quick ops cycle through.
const quickSeeds = 16

// paperQuick: one op is one experiments.RunAll in quick mode with
// Workers = nproc — the "regenerate every table" path. Three ops in four
// regenerate the canonical seed-42 tables, which must match the
// checked-in golden byte for byte with no failed claim; op 4j+3 runs
// experiment seed trials.Seed(-seed, j mod quickSeeds) and must match
// that seed's first rendering. RunAll's cost is heavy-tailed across
// seeds (E15's asynchronous Ben-Or runs put 40 seeds between 0.6 and
// 4 s on a 2-core x86 VM): with half the ops out of sample, ops_per_s
// spread by 18% over ten seeds, so the canonical seed carries most of a
// run while every run still covers seeds nobody tuned on.
func paperQuick(b *bench) {
	seedOf := func(i int) uint64 {
		if i%4 != 3 {
			return canonicalSeed
		}
		return trials.Seed(b.seed, (i/4)%quickSeeds)
	}
	cfgOf := func(i int) experiments.Config {
		return experiments.Config{Quick: true, Seed: seedOf(i), Workers: b.workers}
	}
	refs := map[uint64]string{}
	check := func(i int, o quickOut) error {
		seed := seedOf(i)
		ref, ok := refs[seed]
		if !ok {
			refs[seed], ref = o.Text, o.Text
		}
		switch {
		case o.Text != ref && seed == canonicalSeed:
			return fmt.Errorf("tables differ from results/experiments-quick-seed42.txt")
		case o.Text != ref:
			return fmt.Errorf("tables differ from the first repetition at seed %d", seed)
		case o.ClaimsFailed && seed == canonicalSeed:
			return fmt.Errorf("a paper claim failed at the canonical seed")
		}
		return nil
	}
	op := func(i int, d *runtimeDelta) (quickOut, time.Duration, error) {
		var buf bytes.Buffer
		var err error
		took := d.measure(1, func() { err = experiments.RunAll(cfgOf(i), &buf) })
		// Away from the canonical seed, quick-mode claims are 4-trial
		// statistics that can fail honestly; only other errors fail the op.
		claims := err != nil && strings.HasPrefix(err.Error(), "failed claims:")
		if claims {
			err = nil
		}
		return quickOut{buf.String(), claims}, took, err
	}
	s := serial[quickOut]{
		gcBetween: true,
		// Set-up loads the golden and warms up on the canonical seed.
		setup: func(int) error {
			if refs[canonicalSeed] == "" {
				golden, err := os.ReadFile("results/experiments-quick-seed42.txt")
				if err != nil {
					return err
				}
				refs[canonicalSeed] = string(golden)
			}
			o, _, err := op(0, nil)
			if err != nil {
				return err
			}
			return check(0, o)
		},
		op: op,
		traced: func(rec *recorder, i int) (quickOut, map[string]float64, error) {
			var buf bytes.Buffer
			failed := 0
			for _, ex := range experiments.All() {
				rec.begin("experiments." + ex.ID)
				res, err := ex.Run(cfgOf(i))
				rec.end()
				if err != nil {
					rec.finish()
					return quickOut{}, nil, fmt.Errorf("%s: %w", ex.ID, err)
				}
				if err := res.Table.Render(&buf); err != nil {
					rec.finish()
					return quickOut{}, nil, err
				}
				failed += len(res.Failed())
			}
			rec.finish()
			return quickOut{buf.String(), failed > 0}, map[string]float64{"experiments.failed_claims": float64(failed)}, nil
		},
		check: check,
	}
	s.run(b)
}
