package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// TanhBias8's assembly bodies mirror two files of the Go standard library as
// they stand in go1.24, step for step:
//
//	math/tanh.go       tanh: the three branches by |x|, the Cephes rational
//	                   x + x·s·P(s)/Q(s), and 1 − 2/(Exp(2|x|)+1)
//	math/exp_amd64.s   archExp, its avxfma path (taken when the CPU has AVX
//	                   and FMA, which the bodies' selection requires too)
//
// The tests below hold it to math.Tanh in every bit. If a toolchain bump makes
// them fail on the assembly paths only, math.Tanh changed its operation
// sequence: diff those two files against go1.24's and bring tanhBias8AVX2 and
// tanhBias8AVX512 in kernels_amd64.s (or their selection in TanhBias8) along. A build with
// GOAMD64=v3 lets the compiler fuse the rational's multiply-adds and fails
// the same way.

// halfMaxLog is math.tanh's upper boundary, 0.5*MAXLOG.
const halfMaxLog = 0.5 * 8.8029691931113054295988e+01

// negZero as a bias leaves every h, −0 included, exactly as it is.
var negZero = math.Copysign(0, -1)

// tanhEdges are the sums x = h + b at which math.tanh changes branch or has a
// special case, with both neighbours of each boundary.
func tanhEdges() []float64 {
	edges := []float64{0, 5e-324, 1e-308, 1e300, math.Inf(1)}
	for _, bound := range []float64{0.625, halfMaxLog} {
		edges = append(edges, math.Nextafter(bound, 0), bound, math.Nextafter(bound, math.Inf(1)))
	}
	for _, v := range edges {
		edges = append(edges, -v)
	}
	return append(edges, math.NaN())
}

// tanhEdgeRows is the edge table as TanhBias8 operands: one block of rows per
// bias c, holding v − c for every edge v, so that wherever the subtraction is
// exact the kernel's own sum lands on v again (every edge but ±0 must be
// reached that way under some non-zero bias). Under the negative-zero bias h
// is v itself and so is the sum, −0 included. Lanes of one row fall into
// different branches, which is what the blends have to get right.
func tanhEdgeRows(t testing.TB) (hT, b []float64) {
	edges := tanhEdges()
	landed := map[uint64]bool{} // edges some non-zero bias has landed a sum on
	for _, c := range []float64{negZero, 0.5, -0.5, 32, -32, 5e-324, -1e300, 0.125} {
		hs := make([]float64, 0, len(edges)+3)
		for _, v := range edges {
			h := v - c
			if c == 0 {
				h = v
			} else if math.Float64bits(h+c) == math.Float64bits(v) {
				landed[math.Float64bits(v)] = true
			}
			hs = append(hs, h)
		}
		for len(hs)%8 != 0 {
			hs = append(hs, 0)
		}
		hT = append(hT, hs...)
		for range len(hs) / 8 {
			b = append(b, c)
		}
	}
	// Every edge is also its own bias under h = −0, other edges beside it.
	for i, v := range edges {
		other := func(k int) float64 { return edges[(i+k)%len(edges)] - v }
		hT = append(hT, negZero, other(1), negZero, other(5), other(2), negZero, other(7), other(3))
		b = append(b, v)
	}
	for _, v := range edges {
		if v != 0 && !math.IsNaN(v) && !landed[math.Float64bits(v)] {
			t.Fatalf("no non-zero bias lands a sum on the edge %v", v)
		}
	}
	return hT, b
}

// checkTanhBias8 runs TanhBias8 on a copy of hT and compares every word with
// math.Tanh of the same sum (any NaN for a NaN). It reports the first
// mismatch.
func checkTanhBias8(t testing.TB, what string, hT, b []float64) {
	t.Helper()
	got := CloneVec(hT)
	TanhBias8(got, b)
	for i, bi := range b {
		for s := 0; s < 8; s++ {
			h := hT[8*i+s]
			if want := math.Tanh(h + bi); !sameResult(got[8*i+s], want) {
				t.Fatalf("%s: row %d sample %d: tanh(%v + %v = %#016x) = %v (%#016x), math.Tanh gives %v (%#016x)",
					what, i, s, h, bi, math.Float64bits(h+bi), got[8*i+s], math.Float64bits(got[8*i+s]), want, math.Float64bits(want))
			}
		}
	}
}

// TestTanhBias8MatchesMathTanh is the pin that lets an assembly tanh run under
// the bit-identical model kernels: on every path TanhBias8 equals
// math.Tanh(h+b) in every bit on the edge table, on 18M seeded values at
// scales 1e-5 … 100 (all three branches, mixed within a row; 0.3 and 0.5 are
// there because a rounding moved inside the rational shows in the result
// almost only for sums just under 0.625) and on 2M raw bit patterns
// (denormals, huge magnitudes, NaN payloads).
func TestTanhBias8MatchesMathTanh(t *testing.T) {
	const rows = 1024 // per chunk: the operands stay in cache and memory small
	seeded, raw := 250, 124
	if testing.Short() {
		seeded, raw = 10, 4
	}
	eachPath(t, func(t *testing.T) {
		hT, b := tanhEdgeRows(t)
		checkTanhBias8(t, "edge table", hT, b)
		for n := 0; n <= 9; n++ { // every short row count, unaligned
			checkTanhBias8(t, "short", offAligned(hT[:8*n], n%8), offAligned(b[:n], (n+1)%8))
		}

		rng := rand.New(rand.NewSource(24))
		hT, b = make([]float64, 8*rows), make([]float64, rows)
		scales := []float64{1e-5, 1e-3, 0.1, 0.3, 0.5, 0.625, 1, 10, 100}
		for chunk := 0; chunk < seeded; chunk++ {
			for _, scale := range scales {
				for i := range b {
					b[i] = scale * rng.NormFloat64()
				}
				for i := range hT {
					// Every fourth row mixes the scales across its lanes.
					sc := scale
					if i/8%4 == 0 {
						sc = scales[rng.Intn(len(scales))]
					}
					hT[i] = sc * rng.NormFloat64()
				}
				checkTanhBias8(t, "seeded", hT, b)
			}
		}
		for chunk := 0; chunk < raw; chunk++ {
			for _, rawBias := range []bool{false, true} {
				for i := range hT {
					hT[i] = math.Float64frombits(rng.Uint64())
				}
				for i := range b {
					b[i] = negZero
					if rawBias {
						b[i] = math.Float64frombits(rng.Uint64())
					}
				}
				checkTanhBias8(t, "raw bits", hT, b)
			}
		}
	})
}

// FuzzTanhBias8 lets the fuzzer look for a row that math.Tanh and any body
// disagree on, starting from the edge table.
func FuzzTanhBias8(f *testing.F) {
	hT, b := tanhEdgeRows(f)
	for i, bi := range b {
		q := hT[8*i : 8*i+8]
		f.Add(q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7], bi)
	}
	f.Fuzz(func(t *testing.T, h0, h1, h2, h3, h4, h5, h6, h7, bias float64) {
		eachPathInPlace(t, func(path string) {
			checkTanhBias8(t, path, []float64{
				h0, h1, h2, h3, h4, h5, h6, h7,
				h7, h0, h5, h2, h3, h6, h1, h4,
			}, []float64{bias, -bias})
		})
	})
}

// FuzzTanhBias4 fuzzes one four-lane half of a row — the AVX2 body's lane
// group — in fewer dimensions than FuzzTanhBias8, seeded from the halves of
// the edge table. The four values fill the first half of one row and the
// second half of another, so either half can be the one that disagrees.
func FuzzTanhBias4(f *testing.F) {
	hT, b := tanhEdgeRows(f)
	for i, bi := range b {
		for _, q := range [][]float64{hT[8*i : 8*i+4], hT[8*i+4 : 8*i+8]} {
			f.Add(q[0], q[1], q[2], q[3], bi)
		}
	}
	f.Fuzz(func(t *testing.T, h0, h1, h2, h3, bias float64) {
		eachPathInPlace(t, func(path string) {
			checkTanhBias8(t, path, []float64{
				h0, h1, h2, h3, h3, h2, h1, h0,
				-h0, -h1, -h2, -h3, h0, h1, h2, h3,
			}, []float64{bias, bias})
		})
	})
}
