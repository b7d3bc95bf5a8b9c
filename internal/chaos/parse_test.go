package chaos

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestParseSpecAcceptsNone(t *testing.T) {
	// Regression: Spec() renders the zero Config as "none", but ParseSpec
	// rejected it ("none" is not key=value), breaking the documented
	// ParseSpec(c.Spec()) == c round-trip exactly for the default config.
	for _, spec := range []string{"none", "NONE", " none ", ""} {
		cfg, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		if cfg != (Config{}) {
			t.Fatalf("ParseSpec(%q) = %+v, want the zero config", spec, cfg)
		}
	}
	if _, err := ParseSpec("none=1"); err == nil {
		t.Fatal(`"none=1" accepted: "none" must only be a bare literal, not a key`)
	}
}

func TestValidateRejectsNaNRates(t *testing.T) {
	nan := func() float64 { var z float64; return z / z }()
	if err := (Config{Drop: nan}).Validate(); err == nil {
		t.Fatal("NaN drop rate accepted")
	}
}

func TestSpecRoundTripProperty(t *testing.T) {
	// For any valid config, ParseSpec(c.Spec()) must reproduce c exactly
	// — including the zero config, whose spec is the "none" literal the
	// regression above covers.
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		var cfg Config
		switch r.Intn(3) {
		case 0:
		case 1:
			cfg.Drop = float64(r.Intn(1000)) / 1000
		default:
			cfg.Drop = r.Float64()
		}
		back, err := ParseSpec(cfg.Spec())
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", cfg.Spec(), err)
		}
		if back != cfg {
			t.Fatalf("round trip of %q: got %+v, want %+v", cfg.Spec(), back, cfg)
		}
	}
}

// FuzzSpecRoundTrip feeds arbitrary strings to ParseSpec; every spec it
// accepts must re-render and re-parse to the identical Config.
func FuzzSpecRoundTrip(f *testing.F) {
	f.Add("none")
	f.Add("")
	f.Add("drop=0.1")
	f.Add(" DROP = 0.05 , ")
	f.Add("drop=1")
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			t.Skip() // rejected specs are out of scope
		}
		back, err := ParseSpec(cfg.Spec())
		if err != nil {
			t.Fatalf("Spec() of an accepted config rejected: ParseSpec(%q) -> %+v, ParseSpec(%q): %v",
				spec, cfg, cfg.Spec(), err)
		}
		if !reflect.DeepEqual(back, cfg) {
			t.Fatalf("round trip of %q: got %+v, want %+v (spec %q)", spec, back, cfg, cfg.Spec())
		}
	})
}
