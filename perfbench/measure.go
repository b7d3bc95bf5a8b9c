package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// peakRSSMB is the process's peak resident set (getrusage maxrss, which
// Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS restarts the kernel's peak-RSS counter (VmHWM) at the
// current RSS; it reports false where /proc/self/clear_refs is not
// writable.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// hwmMB is the peak RSS since the last resetPeakRSS (VmHWM, in KiB in
// /proc/self/status).
func hwmMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}

// cpuSeconds is the process's user+system CPU time across all threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runtimeSample is a reading of the runtime/metrics counters the
// runtime.* layer metrics difference around timed ops.
type runtimeSample struct {
	allocBytes, gcCycles, gcPauseCPU, cpu float64
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/pause:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value), cpuSeconds()}
}

// runtimeDelta accumulates runtime counter differences and wall time over
// the timed sections of a traced run.
type runtimeDelta struct {
	runtimeSample
	wall float64
	ops  int
}

// measure runs fn as one timed section covering ops ops and returns its
// wall time; on a non-nil d it also adds the section's runtime deltas.
func (d *runtimeDelta) measure(ops int, fn func()) time.Duration {
	if d == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	before := readRuntime()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	after := readRuntime()
	d.allocBytes += after.allocBytes - before.allocBytes
	d.gcCycles += after.gcCycles - before.gcCycles
	d.gcPauseCPU += after.gcPauseCPU - before.gcPauseCPU
	d.cpu += after.cpu - before.cpu
	d.wall += wall.Seconds()
	d.ops += ops
	return wall
}
