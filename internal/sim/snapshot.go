package sim

import "synran/internal/metrics"

// Arena-backed snapshot engine. Monte-Carlo look-ahead (the valency
// estimator, the §3.4 Stepwise adversary, the candidate-set LowerBound)
// snapshots a live Execution tens of thousands of times per experiment;
// a fresh Clone per snapshot costs hundreds of heap allocations. The
// SnapshotArena keeps a fleet of retired Execution shells and refills
// them with CloneInto, so steady-state rollouts allocate (almost)
// nothing. The arena is deliberately explicit — not a sync.Pool — so
// ownership is visible at the call site, snapshots are never reclaimed
// behind the caller's back, and the fleet's size is observable.

// ProcessCopier is the optional Process extension that makes snapshots
// allocation-free: a process that can overwrite its own state with a
// deep copy of src's, reusing its internal buffers. CopyFrom reports
// whether the copy was performed; it must return false (and leave the
// receiver unspecified but safe to overwrite via Clone-assignment) when
// src's concrete type does not match. Execution.CloneInto consults it
// before falling back to src.Clone().
type ProcessCopier interface {
	Process
	CopyFrom(src Process) bool
}

// SnapshotArena owns a reusable fleet of executions for repeated
// look-ahead rollouts from a (possibly changing) base state.
//
//	arena := &sim.SnapshotArena{}
//	for i := 0; i < rollouts; i++ {
//		c := arena.Snapshot(base)   // deep copy, buffers recycled
//		c.Run(adv)                  // drive the hypothetical future
//		arena.Release(c)            // return the shell to the fleet
//	}
//
// An arena is NOT safe for concurrent use: each goroutine that takes
// snapshots must own one (internal/valency keeps one per estimator and
// one per look-ahead adversary). A snapshot stays valid until it is
// Released; Release order is arbitrary.
type SnapshotArena struct {
	free []*Execution

	// Metrics, when non-nil, receives arena reuse accounting (hit/miss
	// per Snapshot, fleet high-watermark on Release), on shard 0.
	// These instruments are volatile — each worker's fleet warms up
	// independently, so the hit/miss split depends on the worker count —
	// and are therefore excluded from the deterministic metrics export.
	Metrics *metrics.Engine
}

// Snapshot returns a deep copy of base, reusing a retired execution
// shell when one is available. The copy is byte-identical in behaviour
// to base.Clone(); see CloneInto for the contract.
func (a *SnapshotArena) Snapshot(base *Execution) *Execution {
	var dst *Execution
	if k := len(a.free); k > 0 {
		dst = a.free[k-1]
		a.free[k-1] = nil
		a.free = a.free[:k-1]
	}
	if m := a.Metrics; m != nil {
		if dst != nil {
			m.ArenaHits.Inc(0)
		} else {
			m.ArenaMisses.Inc(0)
		}
	}
	return base.CloneInto(dst)
}

// Release returns a snapshot's shell to the fleet for reuse. The caller
// must not touch e afterwards. Releasing nil is a no-op; releasing
// executions that did not come from Snapshot is allowed (their buffers
// simply join the fleet).
func (a *SnapshotArena) Release(e *Execution) {
	if e == nil {
		return
	}
	a.free = append(a.free, e)
	if m := a.Metrics; m != nil {
		m.ArenaSize.Observe(0, uint64(len(a.free)))
	}
}

// Size reports how many retired shells the arena currently holds.
func (a *SnapshotArena) Size() int { return len(a.free) }
