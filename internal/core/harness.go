package core

import (
	"fmt"

	"synran/internal/metrics"
	"synran/internal/sim"
)

// RunSpec configures one SynRan execution end to end.
type RunSpec struct {
	N         int
	T         int
	Inputs    []int
	Opts      Options
	Seed      uint64 // seeds both process coins and the adversary stream
	Adversary sim.Adversary
	MaxRounds int
	Observer  sim.Observer
	// Metrics, when non-nil, receives the execution's instrument
	// emissions, sharded by MetricsShard (the trial worker's id).
	Metrics      *metrics.Engine
	MetricsShard int
	// Engine picks the lock-step core: "" or sim.EngineSoA for the
	// default (the columnar core, unless Opts.LeaderCoin or an injected
	// coin rules the kernel out), sim.EngineObject to pin the
	// per-process object core.
	Engine string
}

// Run executes SynRan once under the given adversary and returns the
// execution result.
func Run(spec RunSpec) (*sim.Result, error) {
	if spec.Adversary == nil {
		return nil, fmt.Errorf("core: RunSpec.Adversary is nil")
	}
	procs, err := NewProcs(spec.N, spec.Inputs, spec.Seed, spec.Opts)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		N:            spec.N,
		T:            spec.T,
		MaxRounds:    spec.MaxRounds,
		Observer:     spec.Observer,
		Metrics:      spec.Metrics,
		MetricsShard: spec.MetricsShard,
		Engine:       spec.Engine,
	}
	exec, err := sim.NewExecution(cfg, procs, spec.Inputs, spec.Seed^0x5eed5eed5eed5eed)
	if err != nil {
		return nil, err
	}
	return exec.Run(spec.Adversary)
}
