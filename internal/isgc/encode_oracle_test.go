package isgc

import (
	"math"
	"math/rand"
	"testing"
)

// refEncodeSum is the loop body Encode and EncodePartial shared before
// linalg.SumInto replaced it, moved here verbatim: a zeroed output, then
// every row added in order. It is the oracle of the test below and exists
// nowhere outside this file.
func refEncodeSum(rows [][]float64) []float64 {
	out := make([]float64, len(rows[0]))
	for _, g := range rows {
		for k, x := range g {
			out[k] += x
		}
	}
	return out
}

// TestEncodeMatchesZeroThenAccumulate: for c ∈ {1, 2, 3, 5}, every worker's
// Encode and EncodePartial give the bits of the old loop on rows that mix
// magnitudes 1e16, 1, −1e16 with signed zeros.
func TestEncodeMatchesZeroThenAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n, dim = 6, 67
	for _, c := range []int{1, 2, 3, 5} {
		s := crScheme(t, n, c, 1)
		grads := make([][]float64, n)
		for d := range grads {
			grads[d] = make([]float64, dim)
			for k := range grads[d] {
				grads[d][k] = rng.NormFloat64() * [...]float64{1e16, 1, -1e16, 0, math.Copysign(0, -1)}[rng.Intn(5)]
			}
		}
		for w := 0; w < n; w++ {
			var local [][]float64
			for _, d := range s.Placement().Partitions(w) {
				local = append(local, grads[d])
			}
			want := refEncodeSum(local)
			full, err := s.Encode(w, grads)
			if err != nil {
				t.Fatal(err)
			}
			partial, err := s.EncodePartial(w, local)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if math.Float64bits(full[k]) != math.Float64bits(want[k]) || math.Float64bits(partial[k]) != math.Float64bits(want[k]) {
					t.Fatalf("c=%d worker %d: Encode[%d] = %v, EncodePartial = %v, zero-then-accumulate gives %v", c, w, k, full[k], partial[k], want[k])
				}
			}
		}
	}
}
