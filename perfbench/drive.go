package main

import (
	"fmt"
	"hash/fnv"

	"synran"
	"synran/internal/sim"
	"synran/internal/valency"
)

// outcome is what one execution is checked and compared on: the round
// and fault counts, the message count, and a digest of every decision.
// Its fields are exported so it crosses the trial journal as JSON.
type outcome struct {
	Decide, Halt int
	Crashes      int
	Demoted      int
	Messages     int
	Value        int
	Agreement    bool
	Validity     bool
	Decisions    uint64 // FNV-1a over (decided, decision) per process
}

func summarize(r *synran.Result) outcome {
	h := fnv.New64a()
	buf := make([]byte, 0, 2*len(r.Decisions))
	for i, d := range r.Decisions {
		b := byte(0)
		if r.Decided[i] {
			b = 1
		}
		buf = append(buf, b, byte(d))
	}
	h.Write(buf)
	return outcome{
		Decide: r.DecideRounds, Halt: r.HaltRounds,
		Crashes: r.Crashes, Demoted: r.Faults.Demoted, Messages: r.Messages,
		Value: r.DecidedValue(), Agreement: r.Agreement, Validity: r.Validity,
		Decisions: h.Sum64(),
	}
}

// safe is the output check every execution must pass.
func (o outcome) safe() error {
	if !o.Agreement || !o.Validity {
		return fmt.Errorf("safety violated (agreement=%v validity=%v)", o.Agreement, o.Validity)
	}
	return nil
}

// runTraced performs the same execution as synran.Run through the public
// step API, in exactly Execution.Drive's dispatch order — StepPhaseA,
// then Plan, then Omit (Omitter) before Forge (Forger), then the
// matching FinishRound variant — with a span around every call. Its
// outcome must equal synran.Run's on the same spec; a difference means the
// step API and the engine's own driver have drifted apart. When me is
// non-nil the valency adversaries count rollouts and arena reuse into it.
func runTraced(rec *recorder, spec synran.Spec, me *synran.MetricsEngine) (*synran.Result, error) {
	protocol, advName := spec.Protocol, spec.Adversary
	if protocol == "" {
		protocol = synran.ProtocolSynRan
	}
	if advName == "" {
		advName = synran.AdversaryNone
	}

	rec.begin("protocol.setup")
	procs, err := synran.NewProtocol(protocol, spec.N, spec.T, spec.Inputs, spec.Seed)
	rec.end()
	if err != nil {
		return nil, err
	}

	rec.begin("adversary.setup")
	adv, err := synran.NewAdversaryBudget(advName, spec.N, spec.T, spec.FaultBudget, spec.Seed)
	if err == nil && me != nil {
		switch a := adv.(type) {
		case *valency.LowerBound:
			a.Est.Metrics = me
		case *valency.Stepwise:
			a.Est.Metrics = me
		}
	}
	rec.end()
	if err != nil {
		return nil, err
	}

	cfg := sim.Config{N: spec.N, T: spec.T, MaxRounds: spec.MaxRounds, Engine: spec.Engine, FaultBudget: spec.FaultBudget}
	rec.begin("sim.new_execution")
	exec, err := sim.NewExecution(cfg, procs, spec.Inputs, spec.Seed)
	rec.end()
	if err != nil {
		return nil, err
	}

	maxRounds := spec.MaxRounds
	if maxRounds == 0 {
		maxRounds = sim.DefaultMaxRounds(spec.N)
	}
	omitter, _ := adv.(sim.Omitter)
	forger, _ := adv.(sim.Forger)
	for !exec.Done() {
		if exec.Round() >= maxRounds {
			return nil, fmt.Errorf("%w after %d rounds", sim.ErrMaxRounds, exec.Round())
		}
		rec.begin("sim.phase_a")
		v, err := exec.StepPhaseA()
		rec.end()
		if err != nil {
			return nil, err
		}

		rec.begin("adversary.plan")
		plans := adv.Plan(v)
		var omissions []sim.CrashPlan
		var forgeries []sim.Forgery
		if omitter != nil {
			omissions = omitter.Omit(v)
		} else if forger != nil {
			forgeries = forger.Forge(v)
		}
		rec.end()

		rec.begin("sim.phase_b")
		switch {
		case omitter != nil:
			err = exec.FinishRoundOmitted(plans, omissions)
		case forger != nil:
			err = exec.FinishRoundForged(plans, forgeries)
		default:
			err = exec.FinishRound(plans)
		}
		rec.end()
		if err != nil {
			return nil, err
		}
	}

	rec.begin("sim.result")
	r := exec.Result()
	rec.end()
	return r, nil
}
