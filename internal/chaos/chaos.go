// Package chaos gives the lock-step engine lossy links. Its one fault
// is a drop: each transmission attempt of each message is lost with
// probability Config.Drop, decided by a stream derived from
// internal/rng, so the complete fault trace is reproducible from
// (seed, Config) alone, independent of query order. Lossy turns what
// the links lose into send-omission demotions on the engine's fault
// budget (see lossy.go).
//
// The injector never mutates shared state when queried: every decision
// is computed from a fresh stream split off an immutable root keyed by
// the attempt's coordinates (round, link, retransmit attempt). Two
// injectors built from the same seed and config therefore answer every
// query identically, in any order, from any number of goroutines.
package chaos

import (
	"fmt"

	"synran/internal/rng"
)

// Config is the fault schedule. The zero value injects nothing.
type Config struct {
	// Drop is the probability that one transmission attempt of one
	// message is lost (an omission Lossy may retransmit).
	Drop float64
}

// Validate checks the drop rate is a probability.
func (c Config) Validate() error {
	// Written as a negated conjunction so NaN (for which both Drop < 0
	// and Drop > 1 are false) is rejected too.
	if !(c.Drop >= 0 && c.Drop <= 1) {
		return fmt.Errorf("chaos: drop rate %v out of [0,1]", c.Drop)
	}
	return nil
}

// Injector answers drop queries deterministically from (seed, Config).
// Queries are read-only and safe for concurrent use: the root stream is
// never advanced, only split.
type Injector struct {
	drop float64
	msgs *rng.Stream
}

// keyMessage is the split tag of the message-fault streams. It and the
// injector's own tag below fix every drop decision, so changing either
// changes every chaotic run.
const keyMessage = 0x6d65_7373 // "mess"

// New builds an injector. The same (seed, cfg) always produces the same
// injector, and therefore the same fault trace.
func New(seed uint64, cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// A dedicated split tag decorrelates the fault streams from every
	// other consumer of the run seed (process coins, adversary stream).
	return &Injector{drop: cfg.Drop, msgs: rng.New(seed).Split(0xC4A0_5EED).Split(keyMessage)}, nil
}

// Drop reports whether the attempt-th transmission of the round-r
// message from -> to is lost (attempt 0 is the original send; the
// retransmissions re-query with attempt 1, 2, ...). Each
// attempt draws one Float64 from its own stream; a zero rate draws
// nothing.
func (in *Injector) Drop(round, from, to, attempt int) bool {
	if in.drop == 0 {
		return false
	}
	s := in.msgs.Split(uint64(round)).Split(uint64(from)<<32 | uint64(uint32(to))).Split(uint64(attempt))
	return s.Float64() < in.drop
}
