// Command perfbench is the repository benchmark: closed-loop workloads
// over the synran facade and its layers, each checked for correct
// output, reporting the end-to-end metrics untraced (-trace 0) or the
// per-layer ledger from a separate traced run (-trace 1). The metric
// list and the gated workloads live in BENCHMARK.json at the repository
// root; scale-soa runs only by name or under -workload all (see
// scaleSOA). Run it from the root through perfbench/run.sh, which builds
// this package:
//
//	bash perfbench/run.sh --workload scale-soa --seed 42 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 42 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -workload all every
// workload runs in its own child process, so each peak_rss_mb belongs to
// one workload alone.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"time"
)

// manifest is the part of BENCHMARK.json the program reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench){
	"scale-soa":    scaleSOA,
	"batch-object": batchObject,
	"lookahead":    lookahead,
	"paper-quick":  paperQuick,
}

// bench is one invocation: a single workload at one seed.
type bench struct {
	name    string
	seed    uint64
	seconds time.Duration
	trace   bool
	workers int

	attempted, failed int
	errs              []string
	metrics           map[string]float64
	notes             []string
}

// attempt records one op and its check result.
func (b *bench) attempt(op int, err error) {
	b.attempted++
	if err != nil {
		b.fail(op, err)
	}
}

// fail records a failure outside the op count (set-up) or inside it.
func (b *bench) fail(op int, err error) {
	if op < 0 {
		b.attempted++
	}
	b.failed++
	switch {
	case len(b.errs) >= 10:
	case op < 0:
		b.errs = append(b.errs, err.Error())
	default:
		b.errs = append(b.errs, fmt.Sprintf("op %d: %v", op, err))
	}
}

// endToEnd fills the untraced metrics from per-op latencies (ms), the
// time the timed sections took, and the median set-up time. Tail
// percentiles are reported only where the run holds enough ops for them
// to be tails (p90 from 100 ops, p99 from 1000); they and fail_ratio are
// printed but not gated, since BENCHMARK.json's metrics must exist on
// every workload and be non-zero.
func (b *bench) endToEnd(latsMs []float64, busy time.Duration, setup float64) {
	n := len(latsMs)
	if n <= 32 {
		b.notes = append(b.notes, fmt.Sprintf("op latencies (ms, in order): %.1f", latsMs))
	}
	b.metrics = map[string]float64{
		"ops_per_s":   ratio(float64(n), busy.Seconds()),
		"op_ms.p50":   quantile(latsMs, 0.50),
		"setup_s":     setup,
		"peak_rss_mb": peakRSSMB(),
		"fail_ratio":  ratio(float64(b.failed), float64(b.attempted)),
	}
	for _, p := range []struct {
		name string
		q    float64
		need int
	}{{"op_ms.p90", 0.90, 100}, {"op_ms.p99", 0.99, 1000}} {
		if n >= p.need {
			b.metrics[p.name] = quantile(latsMs, p.q)
		} else {
			b.notes = append(b.notes, fmt.Sprintf("%s not reported: %d ops < %d", p.name, n, p.need))
		}
	}
}

// layers stores the traced run's metrics and the ledger summary lines.
func (b *bench) layers(ld *ledger, m map[string]float64) {
	b.metrics = m
	b.notes = append(b.notes, fmt.Sprintf("ledger: %d traced ops, %.6f s/op; self time per layer:", ld.ops, m["trace.op_s"]))
	for _, name := range ld.layers() {
		b.notes = append(b.notes, fmt.Sprintf("  %-22s %12.6f s/op  share %.4f", name, ld.perOp(name), ld.share(name)))
	}
	check := "layer self times + unattributed sum to the traced op time on every op"
	if len(ld.bad) > 0 {
		check = fmt.Sprintf("layer-sum check FAILED on %d ops: %s", len(ld.bad), ld.bad[0])
	}
	b.notes = append(b.notes, check,
		fmt.Sprintf("unattributed share %.4f; round phases: phase A %.4f, plan %.4f, phase B %.4f",
			m["trace.unattributed.share"], m["sim.phase_a.share"], m["adversary.plan.share"], m["sim.phase_b.share"]))
	if err := os.MkdirAll(buildDir, 0o755); err == nil {
		path := fmt.Sprintf("%s/spans-%s.jsonl", buildDir, b.name)
		if err := ld.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			b.notes = append(b.notes, "spans written to "+path)
		}
	}
}

// extraUnits are the units of the metrics printed but not listed in
// BENCHMARK.json.
var extraUnits = map[string]string{"op_ms.p90": "ms", "op_ms.p99": "ms", "fail_ratio": "ratio"}

// buildDir holds everything the benchmark writes: the binary, the Go
// caches, temporary journals and span dumps.
const buildDir = ".bench_build"

func main() {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Uint64("seed", 42, "workload seed (42 is the canonical seed of the checked-in goldens)")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()

	mf, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("want -seconds >= 1 and -trace 0 or 1"))
	}
	if *workload == "all" {
		os.Exit(runAll(mf, *seed, *seconds, *trace))
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (want all or one of BENCHMARK.json's workloads)", *workload))
	}
	b := &bench{name: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, workers: runtime.GOMAXPROCS(0)}
	run(b)

	defs := mf.EndToEnd
	if b.trace {
		defs = mf.PerLayer
	}
	out, err := b.emit(defs)
	if err != nil {
		fatal(err)
	}
	fmt.Println(out)
	if b.failed > 0 {
		os.Exit(1)
	}
}

// emit prints the human-readable report and returns the result line.
func (b *bench) emit(defs []metricDef) (string, error) {
	listed := map[string]bool{}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := b.metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s is listed in BENCHMARK.json but not computed", d.Name)
		}
		listed[d.Name] = true
		metrics[d.Name] = value{v, d.Unit}
		fmt.Printf("%-28s %16.6f %s\n", d.Name, v, d.Unit)
	}
	var extra []string
	for name := range b.metrics {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("%-28s %16.6f %s (printed, not gated)\n", name, b.metrics[name], extraUnits[name])
	}
	for _, n := range b.notes {
		fmt.Println(n)
	}
	for _, e := range b.errs {
		fmt.Println("FAIL", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, metrics})
	return string(line), err
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repository root)", err)
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range mf.Workloads {
		if workloads[w.Name] == nil {
			return nil, fmt.Errorf("%s lists workload %q, which perfbench does not implement", path, w.Name)
		}
	}
	return &mf, nil
}

// runAll runs every workload — BENCHMARK.json's, then the ungated ones —
// in its own child process and prints one table of the end-to-end (or
// per-layer) metrics across them.
func runAll(mf *manifest, seed uint64, seconds, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	defs := mf.EndToEnd
	if trace == 1 {
		defs = mf.PerLayer
	}
	type row struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	var names []string
	gated := map[string]bool{}
	for _, w := range mf.Workloads {
		names = append(names, w.Name)
		gated[w.Name] = true
		fmt.Printf("%s: %s\n", w.Name, w.Why)
	}
	var ungated []string
	for name := range workloads {
		if !gated[name] {
			ungated = append(ungated, name)
		}
	}
	sort.Strings(ungated)
	names = append(names, ungated...)

	rows := make([]row, len(names))
	code := 0
	for i, name := range names {
		note := ""
		if !gated[name] {
			note = " (not in BENCHMARK.json, not gated)"
		}
		fmt.Printf("== %s%s\n", name, note)
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			code = 1
		}
		var last string
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			if last != "" {
				fmt.Println("  " + last)
			}
			last = sc.Text()
		}
		if err := json.Unmarshal([]byte(last), &rows[i]); err != nil {
			fmt.Printf("  %s: no result line (%v)\n", name, err)
			code = 1
		}
	}
	fmt.Printf("\n%-28s", "metric")
	for _, name := range names {
		fmt.Printf(" %16s", name)
	}
	fmt.Println()
	printRow := func(name, unit string, get func(row) float64) {
		fmt.Printf("%-28s", name+" ("+unit+")")
		for _, r := range rows {
			fmt.Printf(" %16.6g", get(r))
		}
		fmt.Println()
	}
	for _, d := range defs {
		name := d.Name
		printRow(name, d.Unit, func(r row) float64 { return r.Metrics[name].Value })
	}
	printRow("fail_ratio", "ratio", func(r row) float64 { return ratio(float64(r.Failed), float64(r.Attempted)) })
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: code == 0, Metrics: map[string]value{}}
	for i, w := range names {
		res.Attempted += rows[i].Attempted
		res.Failed += rows[i].Failed
		res.Correct = res.Correct && rows[i].Correct
		for name, v := range rows[i].Metrics {
			res.Metrics[w+"/"+name] = v
		}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
