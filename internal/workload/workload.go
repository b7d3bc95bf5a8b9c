// Package workload generates the initial input vectors the experiments
// run consensus on, including the adjacent-vector chain of Lemma 3.5
// (the paper's initial-state argument walks a chain of input vectors
// from all-0 to all-1 that differ in one position).
package workload

import (
	"fmt"
	"strings"

	"synran/internal/rng"
)

// Uniform returns n copies of bit v.
func Uniform(n, v int) []int {
	in := make([]int, n)
	if v != 0 {
		for i := range in {
			in[i] = 1
		}
	}
	return in
}

// HalfHalf returns an alternating 0/1 vector (the maximally split start).
func HalfHalf(n int) []int {
	in := make([]int, n)
	for i := range in {
		in[i] = i % 2
	}
	return in
}

// Random returns independent Bernoulli(p) inputs.
func Random(n int, p float64, r *rng.Stream) []int {
	in := make([]int, n)
	for i := range in {
		if r.Float64() < p {
			in[i] = 1
		}
	}
	return in
}

// Chain returns the Lemma 3.5 chain of n+1 input vectors: vector j has
// ones in positions 0..j-1. Adjacent vectors differ in exactly one input.
func Chain(n int) [][]int {
	out := make([][]int, n+1)
	for j := 0; j <= n; j++ {
		v := make([]int, n)
		for i := 0; i < j; i++ {
			v[i] = 1
		}
		out[j] = v
	}
	return out
}

// named is the one table of workloads by name, in the order Names
// lists them.
var named = []struct {
	name string
	gen  func(n int, seed uint64) []int
}{
	{"zeros", func(n int, _ uint64) []int { return Uniform(n, 0) }},
	{"ones", func(n int, _ uint64) []int { return Uniform(n, 1) }},
	{"half", func(n int, _ uint64) []int { return HalfHalf(n) }},
	{"random", func(n int, seed uint64) []int { return Random(n, 0.5, rng.New(seed)) }},
}

// Names returns the workload names Named accepts.
func Names() []string {
	out := make([]string, len(named))
	for i, w := range named {
		out[i] = w.name
	}
	return out
}

// Named resolves a workload by name; the CLI tools use it.
func Named(name string, n int, seed uint64) ([]int, error) {
	for _, w := range named {
		if w.name == name {
			return w.gen(n, seed), nil
		}
	}
	return nil, fmt.Errorf("workload: unknown workload %q (want %s)", name, strings.Join(Names(), "|"))
}
