package netsim_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"synran"
	"synran/internal/sim"
)

// TestZeroFaultChaosDigestEqualsSequential runs every façade protocol
// three ways: on the lock-step engine, on the live runner, and on the
// live runner with an armed zero-rate injector (-chaos none). The three
// Results must agree field by field, messages included, and so must the
// digests. The random adversary's crashes leave receivers that halt in
// the round a message reaches them: the delivery an armed injector once
// left uncounted.
func TestZeroFaultChaosDigestEqualsSequential(t *testing.T) {
	zero := synran.ChaosConfig{}
	for _, protocol := range synran.Protocols() {
		model, err := synran.ProtocolFaults(protocol)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{5, 9, 16} {
			tt := min((n-1)/2, model.MaxT(n))
			for seed := uint64(1); seed <= 4; seed++ {
				run := func(live bool, chaos *synran.ChaosConfig) (*synran.Result, uint64) {
					d := sim.NewDigest()
					res, err := synran.Run(synran.Spec{
						N: n, T: tt, Inputs: synran.HalfHalfInputs(n),
						Protocol: protocol, Adversary: synran.AdversaryRandom, Seed: seed,
						Live: live, Chaos: chaos, Observer: d,
					})
					if err != nil {
						t.Fatalf("%s n=%d seed=%d live=%v chaos=%v: %v", protocol, n, seed, live, chaos != nil, err)
					}
					return res, d.Sum()
				}
				engine, dEngine := run(false, nil)
				for _, lane := range []struct {
					name  string
					live  bool
					chaos *synran.ChaosConfig
				}{{"live", true, nil}, {"chaos none", false, &zero}} {
					got, dGot := run(lane.live, lane.chaos)
					if diff := resultDiff(engine, got); diff != "" || dGot != dEngine {
						t.Errorf("%s n=%d t=%d seed=%d: %s differs from the engine:%s (digest %016x vs %016x)",
							protocol, n, tt, seed, lane.name, diff, dGot, dEngine)
					}
				}
			}
		}
	}
}

// resultDiff names every field in which two Results differ.
func resultDiff(want, got *synran.Result) string {
	var b strings.Builder
	w, g := reflect.ValueOf(*want), reflect.ValueOf(*got)
	for i := 0; i < w.NumField(); i++ {
		if !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
			fmt.Fprintf(&b, " %s %v (engine %v);", w.Type().Field(i).Name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
	return b.String()
}
