package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// epoch anchors every span timestamp; time.Since reads the monotonic
// clock, so spans are immune to wall-clock steps.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// rootSpan names the span that covers a whole op. Its self time — the
// part of the op no layer span covers — is trace.unattributed_s.
const rootSpan = "op"

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call (nothing inside internal/ is instrumented).
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span within the op, -1 for the root
}

// recorder collects the spans of one op. An op runs on one goroutine, so
// a recorder needs no locking; spans nest strictly (begin/end is a stack).
type recorder struct {
	op    int
	spans []span
	stack []int
}

// newRecorder opens the op's root span.
func newRecorder(op int) *recorder {
	r := &recorder{op: op}
	r.begin(rootSpan)
	return r
}

func (r *recorder) begin(name string) {
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	r.stack = append(r.stack, len(r.spans))
	r.spans = append(r.spans, span{Op: r.op, Name: name, Start: nowNs(), Parent: parent})
}

func (r *recorder) end() {
	i := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[i].End = nowNs()
}

// finish closes every open span, the root last, and returns the op's
// duration in nanoseconds.
func (r *recorder) finish() int64 {
	for len(r.stack) > 0 {
		r.end()
	}
	return r.spans[0].End - r.spans[0].Start
}

// ledger aggregates finished ops: per-layer self time, per-op counts, and
// the layer-sum check. It is shared by concurrent trial workers.
type ledger struct {
	mu     sync.Mutex
	ops    int
	opNs   int64
	selfNs map[string]int64
	spans  map[string]int // span count per name (sim.phase_a = rounds)
	counts map[string]float64
	bad    []string
	kept   []*recorder
}

func newLedger() *ledger {
	return &ledger{selfNs: map[string]int64{}, spans: map[string]int{}, counts: map[string]float64{}}
}

// add files a finished op. A span's self time is its duration minus its
// children's; the root's self time is the unattributed remainder. The
// layer-sum check recomputes the op time as the sum of every self time
// and fails the op unless it matches the root span exactly, no self time
// is negative, and every child lies inside its parent.
func (l *ledger) add(r *recorder, counts map[string]float64) error {
	opNs := r.finish()
	child := make([]int64, len(r.spans))
	var err error
	for _, s := range r.spans[1:] {
		p := r.spans[s.Parent]
		if s.Start < p.Start || s.End > p.End {
			err = fmt.Errorf("op %d: span %s [%d,%d] escapes parent %s", r.op, s.Name, s.Start, s.End, p.Name)
		}
		child[s.Parent] += s.End - s.Start
	}
	self := make(map[string]int64, 8)
	var sum int64
	for i, s := range r.spans {
		d := s.End - s.Start - child[i]
		if d < 0 {
			err = fmt.Errorf("op %d: span %s has negative self time %dns", r.op, s.Name, d)
		}
		self[s.Name] += d
		sum += d
	}
	if sum != opNs {
		err = fmt.Errorf("op %d: layer self times sum to %dns, op took %dns", r.op, sum, opNs)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops++
	l.opNs += opNs
	for name, d := range self {
		l.selfNs[name] += d
	}
	for _, s := range r.spans {
		l.spans[s.Name]++
	}
	for k, v := range counts {
		l.counts[k] += v
	}
	l.kept = append(l.kept, r)
	if err != nil {
		l.bad = append(l.bad, err.Error())
	}
	return err
}

// perOp returns a layer's mean self time per op in seconds.
func (l *ledger) perOp(name string) float64 {
	return ratio(float64(l.selfNs[name])/1e9, float64(l.ops))
}

// share returns a layer's self time as a fraction of all op time.
func (l *ledger) share(name string) float64 {
	return ratio(float64(l.selfNs[name]), float64(l.opNs))
}

// layers returns the recorded span names, heaviest self time first.
func (l *ledger) layers() []string {
	names := make([]string, 0, len(l.selfNs))
	for n := range l.selfNs {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return l.selfNs[names[i]] > l.selfNs[names[j]] })
	return names
}

// write stores every kept span as one JSON object per line, in op order.
func (l *ledger) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sort.Slice(l.kept, func(i, j int) bool { return l.kept[i].op < l.kept[j].op })
	for _, r := range l.kept {
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
