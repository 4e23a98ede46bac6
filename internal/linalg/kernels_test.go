package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// eachPathInPlace calls fn with the portable Go loops selected and then with
// the assembly, restoring the host's choice afterwards. A host that failed
// the probe runs the portable half only and says so. (kerneltest.EachPath is
// this function for the packages above; importing it here would be a cycle.)
func eachPathInPlace(tb testing.TB, fn func(path string)) {
	tb.Helper()
	defer SetVectorKernels(SetVectorKernels(false))
	fn("portable")
	if !HasVectorKernels() {
		tb.Log("NOT RUN under avx2: this host has no AVX2 (or its OS does not save YMM state), so the assembly kernels were not exercised")
		return
	}
	SetVectorKernels(true)
	fn("avx2")
}

// eachPath runs fn as one subtest per path.
func eachPath(t *testing.T, fn func(t *testing.T)) {
	eachPathInPlace(t, func(path string) { t.Run(path, fn) })
}

// TestVectorKernelsProbed is the loud half of that log line: CI runs it with
// -v and requires a PASS, so a runner that silently tests one path only fails.
func TestVectorKernelsProbed(t *testing.T) {
	if !HasVectorKernels() {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("SetVectorKernels(true) accepted on a host that failed the probe")
				}
			}()
			SetVectorKernels(true)
		}()
		t.Skip("NOT RUN: no AVX2 on this host; every kernel test covered the portable path only")
	}
	if !useAVX2 {
		t.Error("the host passed the probe but the portable path is selected")
	}
}

// unitVec is ordinary data: almost any reassociation, or a fused
// multiply-add, already moves a last bit.
func unitVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

var kernelDraws = []struct {
	name string
	draw func(*rand.Rand, int) []float64
}{
	{"unit", unitVec},
	{"mixed", mixedVec},
	{"edge", edgeVec}, // ±0, subnormals and underflowing products, NaN, ±Inf
}

func uintptrOf(v []float64) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(v))) }

// offAligned returns a copy of v that starts off words past a 32-byte
// boundary, with room behind it.
func offAligned(v []float64, off int) []float64 {
	buf := make([]float64, len(v)+8)
	for uintptrOf(buf)%32 != 0 {
		buf = buf[1:]
	}
	buf = buf[off : off+len(v) : off+len(v)]
	copy(buf, v)
	return buf
}

// MatVecT4 must give every (row, sample) the bits of that sample's own
// MatVecInto, on both paths: every rows mod 8 below and above one eight-row
// pass (so every eight-row pass meets every four-row and 1–3-row rest) and
// the benchmark's row counts, every n mod 4 around the lane width, strides
// wider than the row, operands starting 0–3 words off 32-byte alignment.
func TestMatVecT4BitIdentical(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		rowCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23, 24, 25, 64, 128}
		for _, in := range kernelDraws {
			for _, rows := range rowCounts {
				for n := 0; n <= 67; n++ {
					if rows > 13 && n%16 > 1 {
						continue
					}
					stride := n + 3*(n%2)
					off := (rows + n) % 4
					w := offAligned(in.draw(rng, rows*stride+n), off)
					var xs [4][]float64
					for s := range xs {
						xs[s] = in.draw(rng, n)
					}
					xT := offAligned(make([]float64, 4*n), (off+1)%4)
					Interleave4(xT, xs[0], xs[1], xs[2], xs[3])
					gotT := offAligned(nanVec(4*rows+2), (off+2)%4)
					MatVecT4(gotT, w, stride, rows, xT)
					want := make([]float64, rows)
					for s, x := range xs {
						MatVecInto(want, w, stride, x)
						for r := range want {
							if !sameResult(gotT[4*r+s], want[r]) {
								t.Fatalf("%s rows=%d n=%d stride=%d: row %d sample %d = %v, MatVecInto gives %v", in.name, rows, n, stride, r, s, gotT[4*r+s], want[r])
							}
						}
					}
					for _, v := range gotT[4*rows:] {
						if !math.IsNaN(v) {
							t.Fatalf("%s rows=%d n=%d: wrote past the 4·rows outputs", in.name, rows, n)
						}
					}
				}
			}
		}
	})
}

// Interleave4 and Deinterleave4 are inverses and move bits, not values.
func TestInterleave4RoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for n := 0; n <= 9; n++ {
		var xs, ds [4][]float64
		for s := range xs {
			xs[s], ds[s] = edgeVec(rng, n), nanVec(n)
		}
		xT := nanVec(4 * n)
		Interleave4(xT, xs[0], xs[1], xs[2], xs[3])
		for j := 0; j < n; j++ {
			for s := range xs {
				if math.Float64bits(xT[4*j+s]) != math.Float64bits(xs[s][j]) {
					t.Fatalf("n=%d: xT[4·%d+%d] = %v, want %v", n, j, s, xT[4*j+s], xs[s][j])
				}
			}
		}
		Deinterleave4(ds[0], ds[1], ds[2], ds[3], xT)
		for s := range xs {
			for j := range xs[s] {
				if math.Float64bits(ds[s][j]) != math.Float64bits(xs[s][j]) {
					t.Fatalf("n=%d: round trip of sample %d[%d] = %v, want %v", n, s, j, ds[s][j], xs[s][j])
				}
			}
		}
	}
}

// The kernels write dst and nothing else: run on sub-slices of an arena
// filled with one bit pattern, every word outside dst keeps its bits, the
// sources included. The pattern is a finite number, not a NaN: a lane that
// strays computes on the gaps around the sources too, and a NaN would come
// back out of that arithmetic with the very bits it went in with.
func TestKernelsStayInsideTheirSlices(t *testing.T) {
	const sentinel = 0x4242424242424242
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(26))
		arena := make([]float64, 4096)
		// carve hands out consecutive sub-slices with a gap between them; the
		// gaps (and the arena's ends) are what must keep the sentinel.
		var next int
		var gaps [][]float64
		carve := func(n int) []float64 {
			gaps = append(gaps, arena[next:next+5])
			next += 5
			v := arena[next : next+n : next+n]
			next += n
			return v
		}
		reset := func() {
			for i := range arena {
				arena[i] = math.Float64frombits(sentinel)
			}
			next, gaps = 0, gaps[:0]
		}
		untouched := func(what string) {
			t.Helper()
			for _, gap := range append(gaps, arena[next:]) {
				for _, v := range gap {
					if math.Float64bits(v) != sentinel {
						t.Fatalf("%s: an arena word outside every operand changed to %v", what, v)
					}
				}
			}
		}
		for _, shape := range [][3]int{
			{1, 1, 1}, {3, 5, 5}, {4, 4, 7}, {5, 7, 7}, {6, 67, 70}, {13, 16, 16},
			{14, 5, 5}, {15, 9, 11}, {16, 4, 4}, {17, 3, 6}, {23, 8, 8}, {24, 1, 2}, {25, 6, 9}, {64, 16, 16},
		} {
			rows, n, stride := shape[0], shape[1], shape[2]
			reset()
			w, xT, dstT := carve((rows-1)*stride+n), carve(4*n), carve(4*rows)
			copy(w, unitVec(rng, len(w)))
			copy(xT, unitVec(rng, len(xT)))
			wWas, xWas := CloneVec(w), CloneVec(xT)
			MatVecT4(dstT, w, stride, rows, xT)
			untouched("MatVecT4")
			if !slices.Equal(w, wWas) || !slices.Equal(xT, xWas) {
				t.Fatalf("MatVecT4 rows=%d n=%d changed a source", rows, n)
			}
			for i, v := range dstT {
				if math.Float64bits(v) == sentinel {
					t.Fatalf("MatVecT4 rows=%d n=%d left dstT[%d] unwritten", rows, n, i)
				}
			}
		}
		for _, rows := range []int{1, 2, 3, 5, 64} {
			reset()
			b, hT := carve(rows), carve(4*rows)
			copy(b, unitVec(rng, rows))
			copy(hT, unitVec(rng, 4*rows))
			bWas := CloneVec(b)
			TanhBias4(hT, b)
			untouched("TanhBias4")
			if !slices.Equal(b, bWas) {
				t.Fatalf("TanhBias4 rows=%d changed b", rows)
			}
			for i, v := range hT {
				if math.Abs(v) >= 1 { // a tanh of unit data, not the sentinel (≈ 1.6e11)
					t.Fatalf("TanhBias4 rows=%d left hT[%d] = %v", rows, i, v)
				}
			}
		}
		for _, n := range []int{1, 3, 4, 5, 8, 67} {
			for _, axpy4 := range []func([]float64, float64, []float64, float64, []float64, float64, []float64, float64, []float64){AXPY4, AXPY4Zero} {
				reset()
				x0, dst, x1, x2, x3 := carve(n), carve(n), carve(n), carve(n), carve(n)
				for _, v := range [][]float64{x0, dst, x1, x2, x3} {
					copy(v, unitVec(rng, n))
				}
				was := [][]float64{CloneVec(x0), CloneVec(x1), CloneVec(x2), CloneVec(x3)}
				axpy4(dst, 2, x0, 3, x1, 5, x2, 7, x3)
				untouched("AXPY4")
				for q, x := range [][]float64{x0, x1, x2, x3} {
					if !slices.Equal(x, was[q]) {
						t.Fatalf("AXPY4 n=%d changed x%d", n, q)
					}
				}
			}
		}
		for _, n := range []int{1, 3, 4, 5, 8, 9, 12, 16, 67} {
			reset()
			// Four prefetch hints: full rows, one longer and one shorter than
			// dst (skipped for dst).
			a, dst, b, c, d := carve(n), carve(n), carve(n), carve(n), carve(n)
			next := [][]float64{carve(n), carve(n + 2), carve(n), carve(n - 1)}
			srcs := append([][]float64{a, b, c, d}, next...)
			for _, v := range append(srcs, dst) {
				copy(v, unitVec(rng, len(v)))
			}
			was := make([][]float64, len(srcs))
			for q, v := range srcs {
				was[q] = CloneVec(v)
			}
			AddTo4(dst, a, b, c, d, next...)
			untouched("AddTo4")
			for q, v := range srcs {
				if !slices.Equal(v, was[q]) {
					t.Fatalf("AddTo4 n=%d changed operand %d", n, q)
				}
			}
		}
	})
}

// A shape that does not fit its slices panics in Go, before the assembly
// could touch anything, with the same message on both paths.
func TestVectorKernelsPanicOnMisfit(t *testing.T) {
	v := func(n int) []float64 { return make([]float64, n) }
	cases := map[string]func(){
		"AXPY4 short x0":            func() { AXPY4(v(5), 1, v(4), 1, v(5), 1, v(5), 1, v(5)) },
		"AXPY4 long x1":             func() { AXPY4(v(5), 1, v(5), 1, v(6), 1, v(5), 1, v(5)) },
		"AXPY4 short x2":            func() { AXPY4(v(5), 1, v(5), 1, v(5), 1, v(1), 1, v(5)) },
		"AXPY4 empty x3":            func() { AXPY4(v(5), 1, v(5), 1, v(5), 1, v(5), 1, nil) },
		"AXPY4Zero short x0":        func() { AXPY4Zero(v(5), 1, v(4), 1, v(5), 1, v(5), 1, v(5)) },
		"AXPY4Zero long x3":         func() { AXPY4Zero(v(5), 1, v(5), 1, v(5), 1, v(5), 1, v(9)) },
		"AXPY4Zero empty dst":       func() { AXPY4Zero(nil, 1, v(5), 1, v(5), 1, v(5), 1, v(5)) },
		"AddTo4 short a":            func() { AddTo4(v(5), v(4), v(5), v(5), v(5)) },
		"AddTo4 long b":             func() { AddTo4(v(5), v(5), v(6), v(5), v(5)) },
		"AddTo4 empty d":            func() { AddTo4(v(5), v(5), v(5), v(5), nil) },
		"AddTo4 empty dst":          func() { AddTo4(nil, v(5), v(5), v(5), v(5), v(5)) },
		"xT not a multiple of four": func() { MatVecT4(v(8), v(6), 3, 2, v(11)) },
		"dstT shorter than 4·rows":  func() { MatVecT4(v(7), v(6), 3, 2, v(12)) },
		"last row runs past w":      func() { MatVecT4(v(8), v(5), 3, 2, v(12)) },
		"stride runs past w":        func() { MatVecT4(v(8), v(6), 4, 2, v(12)) },
		"negative rows":             func() { MatVecT4(v(8), v(6), 3, -1, v(12)) },
		"negative stride":           func() { MatVecT4(v(8), v(6), -3, 2, v(12)) },
		"TanhBias4 short hT":        func() { TanhBias4(v(11), v(3)) },
		"TanhBias4 long hT":         func() { TanhBias4(v(13), v(3)) },
		"TanhBias4 empty b":         func() { TanhBias4(v(4), nil) },
		"Interleave4 ragged":        func() { Interleave4(v(8), v(2), v(2), v(3), v(2)) },
		"Interleave4 short dst":     func() { Interleave4(v(7), v(2), v(2), v(2), v(2)) },
		"Deinterleave4 ragged":      func() { Deinterleave4(v(2), v(2), v(1), v(2), v(8)) },
		"Deinterleave4 short src":   func() { Deinterleave4(v(2), v(2), v(2), v(2), v(7)) },
	}
	messages := map[string]map[string]any{}
	eachPath(t, func(t *testing.T) {
		seen := map[string]any{}
		messages[t.Name()] = seen
		for name, fn := range cases {
			func() {
				defer func() {
					if seen[name] = recover(); seen[name] == nil {
						t.Errorf("%s: expected a panic", name)
					}
				}()
				fn()
			}()
		}
		// The empty shapes are not misfits and never reach the assembly, and
		// a prefetch hint of any length is not a misfit either.
		AddTo4(nil, nil, nil, nil, nil, v(3))
		AddTo4(v(5), v(5), v(5), v(5), v(5), nil, v(2), v(9), v(5), v(5))
		AXPY4(nil, 1, nil, 1, nil, 1, nil, 1, nil)
		AXPY4Zero(nil, 1, nil, 1, nil, 1, nil, 1, nil)
		MatVecT4(nil, nil, 0, 0, nil)
		MatVecT4(nil, nil, 5, 0, v(8))
		TanhBias4(nil, nil)
		dst := nanVec(8)
		MatVecT4(dst, nil, 0, 2, nil)
		for i, x := range dst {
			if math.Float64bits(x) != 0 {
				t.Errorf("n = 0: dstT[%d] = %v, want the empty sum +0", i, x)
			}
		}
	})
	portable, avx2 := messages[t.Name()+"/portable"], messages[t.Name()+"/avx2"]
	for name := range avx2 {
		if portable[name] != avx2[name] {
			t.Errorf("%s: portable path panics with %v, avx2 path with %v", name, portable[name], avx2[name])
		}
	}
}

// BenchmarkVectorKernels times the kernels alone on both paths, at the
// compute-mlp layer shapes: four 128×64 mat-vecs (layer 1: eight-row passes
// only) and four 10×128 (layer 2: one eight-row pass and a two-row rest),
// one 64-column row update, and the activation of four samples' hidden
// layers (H = 64 and 128, with ns per activation beside ns per call); and
// four 64×2048 mat-vecs, the wide-gather master's loss.
func BenchmarkVectorKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	row, x := make([]float64, 64), unitVec(rng, 64)
	eachPathInPlace(b, func(path string) {
		for _, sh := range [][2]int{{128, 64}, {10, 128}, {64, 2048}} {
			rows, n := sh[0], sh[1]
			w, xT, dstT := unitVec(rng, rows*n), unitVec(rng, 4*n), make([]float64, 4*rows)
			b.Run(fmt.Sprintf("MatVecT4/%dx%d/%s", rows, n, path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MatVecT4(dstT, w, n, rows, xT)
				}
			})
		}
		b.Run("AXPY4/64/"+path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AXPY4(row, 0.5, x, -0.5, x, 0.25, x, -0.25, x)
			}
		})
		b.Run("AddTo4/64/"+path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AddTo4(row, x, x, x, x, x, x, x, x)
			}
		})
		for _, H := range []int{64, 128} {
			// Pre-activations of unit scale: about half the lanes take the
			// rational branch and half the exp one, as in training.
			pre, bias, hT := unitVec(rng, 4*H), unitVec(rng, H), make([]float64, 4*H)
			b.Run(fmt.Sprintf("TanhBias4/%d/%s", H, path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(hT, pre)
					TanhBias4(hT, bias)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(4*H), "ns/activation")
			})
		}
	})
}
