package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// eachPathInPlace calls fn once per body of the vector kernels — the
// portable Go loops, then the AVX2 and the AVX-512 assembly — and restores
// the host's choice afterwards. A body the host failed the probe for is
// skipped with a NOT RUN line. (kerneltest.EachPath is this function for the
// packages above; importing it here would be a cycle.)
func eachPathInPlace(tb testing.TB, fn func(path string)) {
	tb.Helper()
	defer SetPath(SetPath(Portable))
	for p := Portable; p <= AVX512; p++ {
		if p > HostPath() {
			tb.Logf("NOT RUN under %v: this host (or its OS) does not support it, so that body was not exercised", p)
			continue
		}
		SetPath(p)
		fn(p.String())
	}
}

// eachPath runs fn as one subtest per path.
func eachPath(t *testing.T, fn func(t *testing.T)) {
	eachPathInPlace(t, func(path string) { t.Run(path, fn) })
}

// mustRefuse checks that SetPath panics for a body the host cannot run.
func mustRefuse(t *testing.T, p Path) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("SetPath(%v) accepted on a host whose widest body is %v", p, HostPath())
		}
	}()
	SetPath(p)
}

// TestVectorKernelsProbed is the loud half of the NOT RUN line for AVX2: CI
// runs it with -v and requires a PASS, so a runner that silently tests the
// portable path only fails.
func TestVectorKernelsProbed(t *testing.T) {
	if HostPath() < AVX2 {
		mustRefuse(t, AVX2)
		t.Skip("NOT RUN: no AVX2 on this host; every kernel test covered the portable path only")
	}
	if path != HostPath() {
		t.Errorf("the host's widest body is %v but %v is selected", HostPath(), path)
	}
}

// TestWideKernelsProbed says whether this run exercised the AVX-512 bodies.
// It does not fail on a host without them — CI runners vary — but it does
// hold the switch to the probe's verdict.
func TestWideKernelsProbed(t *testing.T) {
	if HostPath() < AVX512 {
		mustRefuse(t, AVX512)
		t.Logf("NOT RUN under avx512: this host's widest body is %v", HostPath())
		return
	}
	t.Log("avx512: every kernel test ran the AVX-512 bodies too")
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

// offAligned returns a copy of v that starts off (0–7) words past a 64-byte
// boundary, with room behind it.
func offAligned(v []float64, off int) []float64 {
	buf := make([]float64, len(v)+16)
	for uintptrOf(buf)%64 != 0 {
		buf = buf[1:]
	}
	buf = buf[off : off+len(v) : off+len(v)]
	copy(buf, v)
	return buf
}

// MatVecT8 must give every (row, sample) the bits of that sample's own
// MatVecInto, on every path: every rows mod 8 below and above one eight-row
// pass (so every eight-row pass meets every four-row and 1–3-row rest) and
// the benchmark's row counts, every n mod 8 around the lane width, strides
// wider than the row, operands starting 0–7 words off 64-byte alignment, and
// batches of 1–9, 16 and 64 samples cut into groups of eight with a padded
// last group whose spare lanes are not compared.
func TestMatVecT8BitIdentical(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		rowCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23, 24, 25, 64, 128}
		sampleCounts := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64}
		combo := 0
		for _, in := range kernelDraws {
			for _, rows := range rowCounts {
				for n := 0; n <= 67; n++ {
					if rows > 13 && n%16 > 1 {
						continue
					}
					combo++
					samples := sampleCounts[combo%len(sampleCounts)]
					stride := n + 3*(n%2)
					off := (rows + n) % 8
					w := offAligned(in.draw(rng, rows*stride+n), off)
					xs := make([][]float64, samples)
					for s := range xs {
						xs[s] = in.draw(rng, n)
					}
					xT := offAligned(make([]float64, 8*n), (off+1)%8)
					gotT := offAligned(nanVec(8*rows+2), (off+2)%8)
					want := make([]float64, rows)
					for g := 0; g < samples; g += 8 {
						group := xs[g:min(g+8, samples)]
						Interleave8(xT, group)
						MatVecT8(gotT, w, stride, rows, xT)
						for s, x := range group {
							MatVecInto(want, w, stride, x)
							for r := range want {
								if !sameResult(gotT[8*r+s], want[r]) {
									t.Fatalf("%s rows=%d n=%d stride=%d: row %d sample %d = %v, MatVecInto gives %v", in.name, rows, n, stride, r, g+s, gotT[8*r+s], want[r])
								}
							}
						}
						for _, v := range gotT[8*rows:] {
							if !math.IsNaN(v) {
								t.Fatalf("%s rows=%d n=%d: wrote past the 8·rows outputs", in.name, rows, n)
							}
						}
					}
				}
			}
		}
	})
}

// Interleave8 and Deinterleave8 are inverses over the lanes in use and move
// bits, not values; a spare lane repeats the last vector.
func TestInterleave8RoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for g := 1; g <= 8; g++ {
		for n := 0; n <= 9; n++ {
			xs := make([][]float64, g)
			for s := range xs {
				xs[s] = edgeVec(rng, n)
			}
			xT := nanVec(8 * n)
			Interleave8(xT, xs)
			for j := 0; j < n; j++ {
				for s := 0; s < 8; s++ {
					if want := xs[min(s, g-1)][j]; math.Float64bits(xT[8*j+s]) != math.Float64bits(want) {
						t.Fatalf("g=%d n=%d: xT[8·%d+%d] = %v, want %v", g, n, j, s, xT[8*j+s], want)
					}
				}
			}
			ds := nanVec(g*n + 1)
			Deinterleave8(ds[:g*n], xT)
			for s, x := range xs {
				for j := range x {
					if math.Float64bits(ds[s*n+j]) != math.Float64bits(x[j]) {
						t.Fatalf("g=%d n=%d: round trip of sample %d[%d] = %v, want %v", g, n, s, j, ds[s*n+j], x[j])
					}
				}
			}
			if !math.IsNaN(ds[g*n]) {
				t.Fatalf("g=%d n=%d: Deinterleave8 wrote past its %d vectors", g, n, g)
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
			{1, 1, 1}, {3, 5, 5}, {4, 4, 7}, {5, 7, 7}, {6, 67, 70}, {7, 2, 2}, {8, 3, 3}, {9, 9, 9}, {13, 16, 16},
			{14, 5, 5}, {15, 9, 11}, {16, 4, 4}, {17, 3, 6}, {23, 8, 8}, {24, 1, 2}, {25, 6, 9}, {64, 16, 16},
		} {
			rows, n, stride := shape[0], shape[1], shape[2]
			reset()
			w, xT, dstT := carve((rows-1)*stride+n), carve(8*n), carve(8*rows)
			copy(w, unitVec(rng, len(w)))
			copy(xT, unitVec(rng, len(xT)))
			wWas, xWas := CloneVec(w), CloneVec(xT)
			MatVecT8(dstT, w, stride, rows, xT)
			untouched("MatVecT8")
			if !slices.Equal(w, wWas) || !slices.Equal(xT, xWas) {
				t.Fatalf("MatVecT8 rows=%d n=%d changed a source", rows, n)
			}
			for i, v := range dstT {
				if math.Float64bits(v) == sentinel {
					t.Fatalf("MatVecT8 rows=%d n=%d left dstT[%d] unwritten", rows, n, i)
				}
			}
		}
		for _, rows := range []int{1, 2, 3, 5, 64} {
			reset()
			b, hT := carve(rows), carve(8*rows)
			copy(b, unitVec(rng, rows))
			copy(hT, unitVec(rng, 8*rows))
			bWas := CloneVec(b)
			TanhBias8(hT, b)
			untouched("TanhBias8")
			if !slices.Equal(b, bWas) {
				t.Fatalf("TanhBias8 rows=%d changed b", rows)
			}
			for i, v := range hT {
				if math.Abs(v) >= 1 { // a tanh of unit data, not the sentinel (≈ 1.6e11)
					t.Fatalf("TanhBias8 rows=%d left hT[%d] = %v", rows, i, v)
				}
			}
		}
		for _, n := range []int{1, 3, 4, 5, 8, 9, 12, 13, 16, 20, 67} {
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
		// Every rest of the sixteen-column pass: whole groups of four, the
		// scalar tail, both and neither.
		for _, n := range []int{1, 3, 4, 5, 8, 12, 15, 16, 17, 20, 31, 32, 35, 67} {
			for _, zero := range []bool{false, true} {
				reset()
				x, dst := carve(n), carve(n)
				copy(x, unitVec(rng, n))
				xWas := CloneVec(x)
				if zero {
					AXPYZero(dst, 3, x) // dst still holds the sentinel: every word must be written
				} else {
					copy(dst, unitVec(rng, n))
					AXPY(dst, 3, x)
				}
				untouched("AXPY")
				if !slices.Equal(x, xWas) {
					t.Fatalf("AXPY zero=%v n=%d changed x", zero, n)
				}
				for i, v := range dst {
					if math.Float64bits(v) == sentinel {
						t.Fatalf("AXPY zero=%v n=%d left dst[%d] unwritten", zero, n, i)
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
		"AXPY short x":                func() { AXPY(v(5), 1, v(4)) },
		"AXPY long x":                 func() { AXPY(v(17), 1, v(18)) },
		"AXPY empty x":                func() { AXPY(v(5), 1, nil) },
		"AXPYZero short x":            func() { AXPYZero(v(16), 1, v(15)) },
		"AXPYZero empty dst":          func() { AXPYZero(nil, 1, v(5)) },
		"AXPY4 short x0":              func() { AXPY4(v(5), 1, v(4), 1, v(5), 1, v(5), 1, v(5)) },
		"AXPY4 long x1":               func() { AXPY4(v(5), 1, v(5), 1, v(6), 1, v(5), 1, v(5)) },
		"AXPY4 short x2":              func() { AXPY4(v(5), 1, v(5), 1, v(5), 1, v(1), 1, v(5)) },
		"AXPY4 empty x3":              func() { AXPY4(v(5), 1, v(5), 1, v(5), 1, v(5), 1, nil) },
		"AXPY4Zero short x0":          func() { AXPY4Zero(v(5), 1, v(4), 1, v(5), 1, v(5), 1, v(5)) },
		"AXPY4Zero long x3":           func() { AXPY4Zero(v(5), 1, v(5), 1, v(5), 1, v(5), 1, v(9)) },
		"AXPY4Zero empty dst":         func() { AXPY4Zero(nil, 1, v(5), 1, v(5), 1, v(5), 1, v(5)) },
		"AddTo4 short a":              func() { AddTo4(v(5), v(4), v(5), v(5), v(5)) },
		"AddTo4 long b":               func() { AddTo4(v(5), v(5), v(6), v(5), v(5)) },
		"AddTo4 empty d":              func() { AddTo4(v(5), v(5), v(5), v(5), nil) },
		"AddTo4 empty dst":            func() { AddTo4(nil, v(5), v(5), v(5), v(5), v(5)) },
		"xT not a multiple of eight":  func() { MatVecT8(v(16), v(6), 3, 2, v(23)) },
		"dstT shorter than 8·rows":    func() { MatVecT8(v(15), v(6), 3, 2, v(24)) },
		"last row runs past w":        func() { MatVecT8(v(16), v(5), 3, 2, v(24)) },
		"stride runs past w":          func() { MatVecT8(v(16), v(6), 4, 2, v(24)) },
		"negative rows":               func() { MatVecT8(v(16), v(6), 3, -1, v(24)) },
		"negative stride":             func() { MatVecT8(v(16), v(6), -3, 2, v(24)) },
		"TanhBias8 short hT":          func() { TanhBias8(v(23), v(3)) },
		"TanhBias8 long hT":           func() { TanhBias8(v(25), v(3)) },
		"TanhBias8 empty b":           func() { TanhBias8(v(8), nil) },
		"Interleave8 ragged":          func() { Interleave8(v(16), [][]float64{v(2), v(2), v(3)}) },
		"Interleave8 short dst":       func() { Interleave8(v(15), [][]float64{v(2), v(2)}) },
		"Interleave8 no vectors":      func() { Interleave8(nil, nil) },
		"Interleave8 nine vectors":    func() { Interleave8(v(8), make([][]float64, 9)) },
		"Deinterleave8 partial lane":  func() { Deinterleave8(v(3), v(16)) },
		"Deinterleave8 nine lanes":    func() { Deinterleave8(v(18), v(16)) },
		"Deinterleave8 short src":     func() { Deinterleave8(v(2), v(15)) },
		"Deinterleave8 from no lanes": func() { Deinterleave8(v(2), nil) },
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
		AXPY(nil, 1, nil)
		AXPYZero(nil, 1, nil)
		AXPY4(nil, 1, nil, 1, nil, 1, nil, 1, nil)
		AXPY4Zero(nil, 1, nil, 1, nil, 1, nil, 1, nil)
		MatVecT8(nil, nil, 0, 0, nil)
		MatVecT8(nil, nil, 5, 0, v(16))
		TanhBias8(nil, nil)
		Interleave8(nil, [][]float64{nil, nil})
		Deinterleave8(nil, nil)
		dst := nanVec(16)
		MatVecT8(dst, nil, 0, 2, nil)
		for i, x := range dst {
			if math.Float64bits(x) != 0 {
				t.Errorf("n = 0: dstT[%d] = %v, want the empty sum +0", i, x)
			}
		}
	})
	portable := messages[t.Name()+"/portable"]
	for _, p := range []Path{AVX2, AVX512} {
		for name, msg := range messages[t.Name()+"/"+p.String()] {
			if portable[name] != msg {
				t.Errorf("%s: portable path panics with %v, %v path with %v", name, portable[name], p, msg)
			}
		}
	}
}

// BenchmarkVectorKernels times the kernels alone on every path the host
// has, at the workloads' shapes: eight-sample mat-vecs at compute-mlp's
// layers (128×64: eight-row passes only; 10×128: one eight-row pass and a
// two-row rest) and straggler-mlp's (64×32, 10×64), and 64×2048, the
// wide-gather master's loss; the row update at the compute-mlp rows (64 and
// 128 columns) and wide-gather's softmax rows (2048); the one-row update
// (AXPY, and AXPYZero, which never reads its row) at a wide-gather gradient
// row (2,048) and at its 1 MiB parameter update (131,072); AddTo4 at fleet-churn's
// dimension 64; and the activation of eight samples' hidden layers (H = 64
// and 128). ns/sample and ns/activation sit beside ns/op so that a
// four-sample kernel's numbers compare directly.
func BenchmarkVectorKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	eachPathInPlace(b, func(path string) {
		for _, sh := range [][2]int{{128, 64}, {10, 128}, {64, 32}, {10, 64}, {64, 2048}} {
			rows, n := sh[0], sh[1]
			w, xT, dstT := unitVec(rng, rows*n), unitVec(rng, 8*n), make([]float64, 8*rows)
			b.Run(fmt.Sprintf("MatVecT8/%dx%d/%s", rows, n, path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MatVecT8(dstT, w, n, rows, xT)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/8, "ns/sample")
			})
		}
		for _, n := range []int{64, 128, 2048} {
			row, x := make([]float64, n), unitVec(rng, n)
			b.Run(fmt.Sprintf("AXPY4/%d/%s", n, path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					AXPY4(row, 0.5, x, -0.5, x, 0.25, x, -0.25, x)
				}
			})
		}
		for _, n := range []int{2048, 131072} {
			row, x := unitVec(rng, n), unitVec(rng, n)
			b.Run(fmt.Sprintf("AXPY/%d/%s", n, path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					AXPY(row, 0x1p-20, x)
				}
			})
			b.Run(fmt.Sprintf("AXPYZero/%d/%s", n, path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					AXPYZero(row, 0.5, x)
				}
			})
		}
		row, x := make([]float64, 64), unitVec(rng, 64)
		b.Run("AddTo4/64/"+path, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AddTo4(row, x, x, x, x, x, x, x, x)
			}
		})
		for _, H := range []int{64, 128} {
			// Pre-activations of unit scale: about half the lanes take the
			// rational branch and half the exp one, as in training.
			pre, bias, hT := unitVec(rng, 8*H), unitVec(rng, H), make([]float64, 8*H)
			b.Run(fmt.Sprintf("TanhBias8/%d/%s", H, path), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(hT, pre)
					TanhBias8(hT, bias)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(8*H), "ns/activation")
			})
		}
	})
}
