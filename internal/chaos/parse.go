package chaos

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec parses the compact command-line form of a Config:
//
//	drop=0.05
//
// Unknown keys, malformed values, and out-of-range rates are rejected
// with a descriptive error. The empty string and "none" — the form Spec
// renders the zero Config as — both parse to the zero Config, so
// ParseSpec(c.Spec()) round-trips for every valid c (pinned by
// FuzzSpecRoundTrip).
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if s := strings.ToLower(strings.TrimSpace(spec)); s == "" || s == "none" {
		return cfg, nil
	}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Config{}, fmt.Errorf("chaos: %q is not key=value", field)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		if key != "drop" {
			return Config{}, fmt.Errorf("chaos: unknown key %q (want drop)", key)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Config{}, fmt.Errorf("chaos: %s=%q: %w", key, val, err)
		}
		cfg.Drop = f
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Spec renders the config back into ParseSpec's format: "none" for the
// zero config, "drop=<rate>" otherwise. ParseSpec(c.Spec()) == c for
// any valid c.
func (c Config) Spec() string {
	if c.Drop == 0 {
		return "none"
	}
	return fmt.Sprintf("drop=%v", c.Drop)
}
