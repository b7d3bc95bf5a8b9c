// Package benchfmt parses `go test -bench` output into a structured
// report, serializes it as JSON (the checked-in BENCH_sim.json
// artifact), and compares reports against a baseline — the machinery
// behind `make bench-json` and the CI allocation-regression gate.
//
// Only the standard text format is understood: header lines
// (`goos:`, `goarch:`, `pkg:`, `cpu:`) followed by benchmark lines of
// the form
//
//	BenchmarkName-8   123   456.7 ns/op   89 B/op   10 allocs/op
//
// Benchmark names are normalized by stripping the trailing
// `-<GOMAXPROCS>` suffix, so reports compare across machines with
// different core counts.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped
	// (e.g. "BenchmarkValencyEstimate/arena").
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int `json:"iterations"`
	// NsPerOp, BytesPerOp, AllocsPerOp are the standard metrics; absent
	// metrics are zero (AllocsPerOp is only emitted under -benchmem or
	// b.ReportAllocs).
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds any further unit → value pairs (custom b.ReportMetric
	// units such as "rounds/op").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is a parsed benchmark run.
type Report struct {
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// normalizeName strips the trailing -<digits> GOMAXPROCS suffix the
// testing package appends to every benchmark name.
func normalizeName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	suffix := name[i+1:]
	if suffix == "" {
		return name
	}
	for _, c := range suffix {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// Parse reads `go test -bench` text output. Lines that are neither
// headers nor benchmark results (PASS, ok, warnings) are skipped.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			continue // e.g. "Benchmark... --- FAIL"
		}
		res := Result{Name: normalizeName(fields[0]), Iterations: iters}
		// The rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchfmt: bad value %q in line %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = val
			case "B/op":
				res.BytesPerOp = val
			case "allocs/op":
				res.AllocsPerOp = val
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = val
			}
		}
		rep.Results = append(rep.Results, res)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	return rep, nil
}

// Find returns the result with the given (normalized) name, or nil.
func (r *Report) Find(name string) *Result {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// WriteJSON serializes the report (one indented JSON document).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadJSON parses a report written by WriteJSON.
func ReadJSON(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("benchfmt: decode: %w", err)
	}
	return &rep, nil
}

// Check compares the named benchmark's allocs/op and B/op in current
// against baseline and returns an error when either regressed by more
// than tolerance (a fraction: 0.20 allows +20%). Allocation counts and
// bytes are the stable axes to gate on — unlike ns/op they do not vary
// with CI host load — and each sees what the other cannot: a buffer
// allocated once at any size grows only B/op. Improvements always pass.
func Check(baseline, current *Report, name string, tolerance float64) error {
	base := baseline.Find(name)
	if base == nil {
		return fmt.Errorf("benchfmt: baseline has no result named %q", name)
	}
	cur := current.Find(name)
	if cur == nil {
		return fmt.Errorf("benchfmt: current run has no result named %q", name)
	}
	for _, m := range []struct {
		unit      string
		base, cur float64
	}{
		{"allocs/op", base.AllocsPerOp, cur.AllocsPerOp},
		{"B/op", base.BytesPerOp, cur.BytesPerOp},
	} {
		if limit := m.base * (1 + tolerance); m.cur > limit {
			return fmt.Errorf("benchfmt: %s %s regressed: %.0f > %.0f (baseline %.0f +%.0f%%)",
				name, m.unit, m.cur, limit, m.base, tolerance*100)
		}
	}
	return nil
}
