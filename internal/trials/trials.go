// Package trials is the deterministic parallel Monte-Carlo trial runner
// used by every experiment in this repository. It fans N independent
// trials out to a bounded worker pool and collects the results in index
// order, under one hard contract: **worker-count invariance** — the
// returned slice (and any error) is byte-for-byte identical whether the
// batch runs on 1 worker or 64.
//
// The contract holds because parallelism is confined to scheduling; all
// randomness must come from the trial index. A trial function must
// derive every random choice from (baseSeed, i) alone — the repository
// discipline is either the additive stride trials.Seed(base, i) or a
// per-trial rng child via Stream.Split(uint64(i)), both of which are
// independent of execution order. A trial function must not touch
// shared mutable state.
//
// Error semantics are deterministic too: if one or more trials fail, Run
// returns the error of the failing trial with the smallest index, and
// stops claiming new trials as soon as any failure is observed. Because
// indices are claimed in ascending order, the smallest failing index is
// always among the claimed trials, so the returned error does not depend
// on the worker count either. A panicking trial function is isolated the
// same way: the panic is recovered on its own worker, converted to a
// *PanicError naming the trial index, and fed through the failure path —
// the pool drains instead of the process aborting from an arbitrary
// goroutine with the other workers mid-flight.
//
// For long batches that must survive crashes of the host process, see
// DurableWorker: RunWorker plus an on-disk checkpoint journal that a
// killed batch resumes from. A retry could not help a failing trial —
// it would fail identically — so there is none; a failure fails a
// journaled batch exactly as it fails a plain one.
package trials

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"synran/internal/metrics"
)

// PanicError is the typed error a panicking trial function is converted
// into: the panic is recovered on the worker that hit it, attributed to
// its trial index, and fed through the normal smallest-failing-index
// error path — so one buggy or crashing trial drains the pool cleanly
// instead of aborting the process from an arbitrary goroutine and
// leaking the in-flight workers.
type PanicError struct {
	// Trial is the index of the trial whose function panicked.
	Trial int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("trial %d panicked: %v", e.Trial, e.Value)
}

// Call runs fn(worker, i) on the calling goroutine with the pool's
// panic isolation: a panic becomes a *PanicError attributed to trial i.
// RunWorker calls it for every trial; a caller that runs one trial
// outside a batch (the valency estimator's probe rollouts) calls it to
// fail the way a batch would.
func Call[T any](fn func(worker, i int) (T, error), worker, i int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Trial: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(worker, i)
}

// DefaultWorkers resolves a configured worker count: values <= 0 select
// runtime.NumCPU(), anything else is returned unchanged. Exposed so
// CLIs and experiment configs share one convention ("0 = all cores").
func DefaultWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.NumCPU()
}

// Seed is the canonical per-trial seed derivation used by the experiment
// suite's additive discipline: base + i·7919 (7919 is the 1000th prime;
// the stride keeps sibling trials' SplitMix64 seed inits far apart).
func Seed(base uint64, i int) uint64 {
	return base + uint64(i)*7919
}

// Run executes fn(i) for every i in [0, n) on a pool of workers
// goroutines (workers <= 0 means runtime.NumCPU()) and returns the
// results in index order. fn must derive all randomness from i and must
// not share mutable state across trials; under that contract the output
// is identical for every worker count.
//
// On failure, the remaining unclaimed trials are cancelled and the error
// of the smallest failing index is returned with a nil slice.
func Run[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return RunWorker(workers, n, func(_, i int) (T, error) { return fn(i) })
}

// RunWorker is Run with the executing worker's identity exposed: fn is
// called as fn(worker, i) where worker ∈ [0, WorkerCount(workers, n))
// and each worker value is owned by exactly one goroutine at a time.
//
// The worker id exists so trial functions can index into per-worker
// scratch state — e.g. one sim.SnapshotArena per worker — without
// synchronization. The determinism contract is unchanged and the id
// must NOT leak into results: fn's return value must depend only on i.
// (Which worker runs trial i varies with scheduling; anything derived
// from the worker id would break worker-count invariance.)
func RunWorker[T any](workers, n int, fn func(worker, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	w := WorkerCount(workers, n)
	out := make([]T, n)
	if w == 1 {
		// Serial fast path: no goroutines, same semantics as the pool
		// (ascending claim order, first failure wins and cancels the rest,
		// panics become *PanicError).
		for i := 0; i < n; i++ {
			v, err := Call(fn, 0, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next atomic.Int64 // next index to claim
		stop atomic.Bool  // set on first observed failure

		mu       sync.Mutex
		firstIdx = n // smallest failing index seen so far
		firstErr error

		wg sync.WaitGroup
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := Call(fn, worker, i)
				if err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					// Cancel the unclaimed tail. Trials already in flight
					// finish; one of them may hold a smaller failing index,
					// and the min-index rule above keeps the outcome
					// deterministic regardless of which failure lands first.
					stop.Store(true)
					continue
				}
				out[i] = v
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// Metered wraps a RunWorker trial function with batch accounting: every
// invocation counts into m's trials_run, failing ones additionally into
// trials_failed, sharded by the executing worker so the hot path never
// contends. A nil m returns fn unchanged.
//
// Determinism caveat: on an all-success batch the merged counts are
// exact (trials_run == n) at every worker count. When a trial fails,
// Run/RunWorker cancels the unclaimed tail, and how many in-flight
// trials were already claimed depends on the worker count — so failing
// batches keep deterministic results and errors (the package contract)
// but not deterministic trial counts. That is inherent to early
// cancellation, not to the metrics layer.
func Metered[T any](m *metrics.Engine, fn func(worker, i int) (T, error)) func(worker, i int) (T, error) {
	if m == nil {
		return fn
	}
	return func(worker, i int) (T, error) {
		m.TrialsRun.Inc(worker)
		v, err := fn(worker, i)
		if err != nil {
			m.TrialsFailed.Inc(worker)
		}
		return v, err
	}
}

// WorkerCount resolves the effective pool width Run/RunWorker will use
// for a batch of n trials: DefaultWorkers(workers) clamped to n. Exposed
// so callers sizing per-worker scratch state allocate exactly as many
// slots as there are workers.
func WorkerCount(workers, n int) int {
	w := DefaultWorkers(workers)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}
