package chaos

import (
	"math/rand"
	"sync"
	"testing"

	"synran/internal/rng"
)

func TestZeroConfigInjectsNothing(t *testing.T) {
	in, err := New(42, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 50; r++ {
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if in.Drop(r, i, j, 0) {
					t.Fatalf("round %d %d->%d: dropped on zero config", r, i, j)
				}
			}
		}
	}
}

func TestDeterminismAcrossInstancesAndQueryOrder(t *testing.T) {
	cfg := Config{Drop: 0.3}
	a, err := New(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ r, i, j, a int }
	drops := map[key]bool{}
	// Query a in forward order, b in reverse order: answers must agree
	// query by query (the fault trace is a pure function of seed+config).
	for r := 1; r <= 10; r++ {
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				for at := 0; at < 3; at++ {
					drops[key{r, i, j, at}] = a.Drop(r, i, j, at)
				}
			}
		}
	}
	for r := 10; r >= 1; r-- {
		for i := 5; i >= 0; i-- {
			for j := 5; j >= 0; j-- {
				for at := 2; at >= 0; at-- {
					if got := b.Drop(r, i, j, at); drops[key{r, i, j, at}] != got {
						t.Fatalf("(%d,%d,%d,%d): %v vs %v", r, i, j, at, drops[key{r, i, j, at}], got)
					}
				}
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := Config{Drop: 0.5}
	a, _ := New(1, cfg)
	b, _ := New(2, cfg)
	same := 0
	total := 0
	for r := 1; r <= 20; r++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if a.Drop(r, i, j, 0) == b.Drop(r, i, j, 0) {
					same++
				}
				total++
			}
		}
	}
	if same == total {
		t.Fatal("two different seeds produced identical fault traces")
	}
}

func TestConcurrentQueriesAreSafeAndConsistent(t *testing.T) {
	cfg := Config{Drop: 0.3}
	in, _ := New(11, cfg)
	ref, _ := New(11, cfg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 1; r <= 20; r++ {
				if in.Drop(r, g, (g+1)%8, 0) != ref.Drop(r, g, (g+1)%8, 0) {
					t.Errorf("concurrent query (%d,%d) diverged", r, g)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRatesRoughlyRespected(t *testing.T) {
	in, _ := New(3, Config{Drop: 0.25})
	drops, total := 0, 0
	for r := 1; r <= 100; r++ {
		for i := 0; i < 10; i++ {
			for j := 0; j < 10; j++ {
				if in.Drop(r, i, j, 0) {
					drops++
				}
				total++
			}
		}
	}
	got := float64(drops) / float64(total)
	if got < 0.22 || got > 0.28 {
		t.Fatalf("drop frequency %.3f far from configured 0.25", got)
	}
}

func TestCertainRates(t *testing.T) {
	in, _ := New(5, Config{Drop: 1})
	for at := 0; at < 3; at++ {
		if !in.Drop(3, 0, 1, at) {
			t.Fatalf("rate-1 drop delivered attempt %d", at)
		}
	}
}

// oracleFate is the injector's former three-way message verdict: one
// Float64 per attempt from the same split stream, then drop below the
// drop rate, duplicate below drop+dup, delay below drop+dup+delay, and
// no draw at all when every rate is zero.
func oracleFate(seed uint64, drop, dup, delay float64, round, from, to, attempt int) string {
	if drop == 0 && dup == 0 && delay == 0 {
		return "deliver"
	}
	s := rng.New(seed).Split(0xC4A0_5EED).Split(0x6d65_7373).
		Split(uint64(round)).Split(uint64(from)<<32 | uint64(uint32(to))).Split(uint64(attempt))
	u := s.Float64()
	switch {
	case u < drop:
		return "drop"
	case u < drop+dup:
		return "dup"
	case u < drop+dup+delay:
		return "delay"
	}
	return "deliver"
}

// TestDropMatchesThreeWayFateOracle pins that the drop-only injector
// draws exactly the fates the three-way one drew with dup = delay = 0,
// so every drop-only schedule, E16's among them, keeps its fault trace.
func TestDropMatchesThreeWayFateOracle(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	rates := []float64{0, 1, 0.05, 0.15, 0.30}
	drops := 0
	for q := 0; q < 20000; q++ {
		seed := r.Uint64()
		drop := rates[r.Intn(len(rates))]
		if r.Intn(2) == 0 {
			drop = r.Float64()
		}
		round, from, to, attempt := 1+r.Intn(200), r.Intn(1<<20), r.Intn(1<<20), r.Intn(4)
		in, err := New(seed, Config{Drop: drop})
		if err != nil {
			t.Fatal(err)
		}
		got := in.Drop(round, from, to, attempt)
		want := oracleFate(seed, drop, 0, 0, round, from, to, attempt)
		if got != (want == "drop") {
			t.Fatalf("seed %d drop %v (%d,%d->%d,%d): Drop = %v, oracle fate %s",
				seed, drop, round, from, to, attempt, got, want)
		}
		if got {
			drops++
		}
	}
	if drops == 0 || drops == 20000 {
		t.Fatalf("%d of 20000 attempts dropped: the comparison is vacuous", drops)
	}
}

func TestValidateRejectsBadRates(t *testing.T) {
	for _, cfg := range []Config{{Drop: -0.1}, {Drop: 1.5}, {Drop: 2}} {
		if _, err := New(1, cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec(" DROP = 0.1 ")
	if err != nil {
		t.Fatal(err)
	}
	if cfg != (Config{Drop: 0.1}) {
		t.Fatalf("parsed %+v, want drop 0.1", cfg)
	}
	if _, err := ParseSpec(""); err != nil {
		t.Fatalf("empty spec rejected: %v", err)
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"drop",               // not key=value
		"bogus=1",            // unknown key
		"drop=0.05,dup=0.02", // a retired fault kind
		"until=1",            // the retired round window
		"drop=abc",           // not a number
		"drop=1.5",           // out of range
		"drop=-0.1",          // negative rate
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
}

func TestSpecRoundTrips(t *testing.T) {
	cfg := Config{Drop: 0.1}
	back, err := ParseSpec(cfg.Spec())
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", cfg.Spec(), err)
	}
	if back != cfg {
		t.Fatalf("round trip: %+v != %+v", back, cfg)
	}
	if (Config{}).Spec() != "none" {
		t.Fatalf("zero spec = %q", (Config{}).Spec())
	}
}
