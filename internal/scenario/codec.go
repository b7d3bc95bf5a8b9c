package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The text form is one `key = value` per line, `#` full-line comments
// and blank lines allowed. Format emits the canonical rendering: fixed
// key order, one space around `=`, the six identity keys always
// present, every other key omitted at its default — so
// Parse(Format(s)) == s byte-for-byte for any normalized s (the
// round-trip property test).

// setField assigns one key=value pair. Errors are unprefixed; callers
// wrap them with position context and the "scenario: " prefix.
func setField(s *Scenario, key, val string) error {
	switch key {
	case "protocol":
		s.Protocol = val
	case "adversary":
		s.Adversary = val
	case "coin":
		s.Coin = val
	case "workload":
		s.Workload = val
	case "n":
		return setInt(&s.N, key, val)
	case "t":
		return setInt(&s.T, key, val)
	case "seed":
		u, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return fmt.Errorf("%s = %q: not an unsigned integer", key, val)
		}
		s.Seed = u
	case "engine":
		s.Engine = val
	case "chaos":
		s.Chaos = val
	case "faultbudget":
		return setInt(&s.FaultBudget, key, val)
	case "maxrounds":
		return setInt(&s.MaxRounds, key, val)
	case "trials":
		return setInt(&s.Trials, key, val)
	case "expect.agreement":
		return setBoolPtr(&s.Expect.Agreement, key, val)
	case "expect.validity":
		return setBoolPtr(&s.Expect.Validity, key, val)
	case "expect.decided":
		var d int
		if err := setInt(&d, key, val); err != nil {
			return err
		}
		s.Expect.Decided = &d
	case "expect.rounds":
		return setInt(&s.Expect.Rounds, key, val)
	case "expect.partial":
		return setBoolPtr(&s.Expect.Partial, key, val)
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}

func setInt(dst *int, key, val string) error {
	n, err := strconv.Atoi(val)
	if err != nil {
		return fmt.Errorf("%s = %q: not an integer", key, val)
	}
	*dst = n
	return nil
}

func setBool(dst *bool, key, val string) error {
	switch val {
	case "true":
		*dst = true
	case "false":
		*dst = false
	default:
		return fmt.Errorf("%s = %q: want true or false", key, val)
	}
	return nil
}

func setBoolPtr(dst **bool, key, val string) error {
	var b bool
	if err := setBool(&b, key, val); err != nil {
		return err
	}
	*dst = &b
	return nil
}

// Parse reads the canonical text form, normalizes, and validates. The
// returned scenario round-trips: Format(Parse(data)) is the canonical
// rendering and Parse(Format(s)) == s for any normalized s.
func Parse(data []byte) (Scenario, error) {
	s := Scenario{T: -1} // absent t means the protocol default
	seen := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		text := strings.TrimSpace(line)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		eq := strings.Index(text, "=")
		if eq < 0 {
			return Scenario{}, errf("line %d: want key = value, got %q", i+1, text)
		}
		key := strings.TrimSpace(text[:eq])
		val := strings.TrimSpace(text[eq+1:])
		if seen[key] {
			return Scenario{}, errf("line %d: duplicate key %q", i+1, key)
		}
		seen[key] = true
		if err := setField(&s, key, val); err != nil {
			return Scenario{}, errf("line %d: %v", i+1, err)
		}
	}
	if !seen["n"] {
		return Scenario{}, errf("missing required key \"n\"")
	}
	return s.Normalized()
}

// Format renders the canonical text form of s (normalizing a copy
// first). The six identity keys are always present; every optional key
// is omitted at its default, which is what makes the rendering
// canonical: Parse(Format(s)) == s byte-for-byte.
func Format(s Scenario) (string, error) {
	ns, err := s.Normalized()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	put := func(key string, val interface{}) { fmt.Fprintf(&b, "%s = %v\n", key, val) }
	put("protocol", ns.Protocol)
	put("adversary", ns.Adversary)
	if ns.IsAsync() {
		put("coin", ns.Coin)
	}
	put("workload", ns.Workload)
	put("n", ns.N)
	put("t", ns.T)
	put("seed", ns.Seed)
	if ns.Engine != "" {
		put("engine", ns.Engine)
	}
	if ns.Chaos != "" {
		put("chaos", ns.Chaos)
	}
	if ns.FaultBudget != 0 {
		put("faultbudget", ns.FaultBudget)
	}
	if ns.MaxRounds != 0 {
		put("maxrounds", ns.MaxRounds)
	}
	if ns.Trials != 1 {
		put("trials", ns.Trials)
	}
	e := ns.Expect
	if e.Agreement != nil {
		put("expect.agreement", *e.Agreement)
	}
	if e.Validity != nil {
		put("expect.validity", *e.Validity)
	}
	if e.Decided != nil {
		put("expect.decided", *e.Decided)
	}
	if e.Rounds > 0 {
		put("expect.rounds", e.Rounds)
	}
	if e.Partial != nil {
		put("expect.partial", *e.Partial)
	}
	return b.String(), nil
}

// Compact renders s as the one-line comma-separated form used in repro
// command lines (same keys and order as Format). ParseCompact inverts
// it.
func Compact(s Scenario) (string, error) {
	text, err := Format(s)
	if err != nil {
		return "", err
	}
	var parts []string
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		parts = append(parts, strings.Replace(line, " = ", "=", 1))
	}
	return strings.Join(parts, ","), nil
}

// ParseCompact parses the one-line form with no defaults beyond the
// normal ones (n stays required via validation).
func ParseCompact(spec string) (Scenario, error) {
	return ParseCompactWith(Scenario{T: -1}, spec)
}

// ParseCompactWith parses the one-line form on top of caller defaults —
// the conformance case parser supplies its historical n=5 grid defaults
// this way. An empty spec returns the normalized defaults unchanged.
func ParseCompactWith(defaults Scenario, spec string) (Scenario, error) {
	s := defaults
	seen := map[string]bool{}
	if strings.TrimSpace(spec) != "" {
		for _, part := range strings.Split(spec, ",") {
			eq := strings.Index(part, "=")
			if eq < 0 {
				return Scenario{}, errf("want key=value, got %q", part)
			}
			key := strings.TrimSpace(part[:eq])
			val := strings.TrimSpace(part[eq+1:])
			if seen[key] {
				return Scenario{}, errf("duplicate key %q", key)
			}
			seen[key] = true
			if err := setField(&s, key, val); err != nil {
				return Scenario{}, errf("%v", err)
			}
		}
	}
	return s.Normalized()
}

// Entry is one scenario loaded from disk, keyed by its path.
type Entry struct {
	// Path is the file the scenario came from (as given to LoadFile or
	// joined under LoadDir's directory).
	Path string
	// Scenario is the parsed, normalized, validated value.
	Scenario Scenario
}

// Name is the entry's display name: the file's base name without the
// .scenario extension.
func (e Entry) Name() string {
	return strings.TrimSuffix(filepath.Base(e.Path), ".scenario")
}

// LoadFile parses one .scenario file.
func LoadFile(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("scenario: %v", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// LoadDir parses every *.scenario file in dir, in name order — the
// enumeration the conformance harness and every -scenario-dir flag use
// for the checked-in corpus.
func LoadDir(dir string) ([]Entry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.scenario"))
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.scenario files in %s", dir)
	}
	sort.Strings(paths)
	out := make([]Entry, 0, len(paths))
	for _, p := range paths {
		s, err := LoadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, Entry{Path: p, Scenario: s})
	}
	return out, nil
}
