package linalg

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}

	c := CloneVec(a)
	c[0] = 9
	if a[0] != 1 {
		t.Fatal("CloneVec must copy")
	}

	d := CloneVec(a)
	AddTo(d, b)
	if d[0] != 5 || d[1] != 7 || d[2] != 9 {
		t.Fatalf("AddTo = %v", d)
	}

	e := CloneVec(a)
	AXPY(e, 2, b)
	if e[0] != 9 || e[1] != 12 || e[2] != 15 {
		t.Fatalf("AXPY = %v", e)
	}

	f := CloneVec(a)
	Scale(f, -1)
	if f[0] != -1 || f[2] != -3 {
		t.Fatalf("Scale = %v", f)
	}

	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := MaxAbsDiff(a, b); got != 3 {
		t.Fatalf("MaxAbsDiff = %v, want 3", got)
	}

	s := []float64{7, 7, 7}
	ScaleInto(s, 3, a)
	if s[0] != 3 || s[1] != 6 || s[2] != 9 {
		t.Fatalf("ScaleInto = %v", s)
	}

	ZeroVec(s)
	if s[0] != 0 || s[1] != 0 || s[2] != 0 {
		t.Fatalf("ZeroVec = %v", s)
	}
}

// AddTo4 must round exactly as four successive AddTo calls do, on both
// kernel paths, and the AVX2 body must give every bit of accumulator-first
// adds (accFirstAdd), NaN payloads included — the rule the Go loop follows
// as the compiler emits it today (ADDSD into the accumulator). The loops
// themselves are held to "a NaN for a NaN" only: which operand the compiler
// puts first is its choice per function and per build (-race commutes
// AddTo4's last add). Every length across the lane group, the line of eight
// and their tails, and a row too long to prefetch; operands starting 0–3
// words off 32-byte alignment; dst aliasing a; and prefetch hints that are
// absent, full rows, short or nil, none of which may change a bit or be
// written.
func TestAddTo4MatchesFourAddTo(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rows := [][]float64{
			{1e16, 1, 0.1, -1e16},
			{1, -1e16, 0.2, 1},
			{-1e16, 1e16, 0.3, 1e16},
			{1, 1, -0.6, 1},
		}
		got, want := []float64{1, 1e16, 0.7, 3}, []float64{1, 1e16, 0.7, 3}
		AddTo4(got, rows[0], rows[1], rows[2], rows[3])
		for _, r := range rows {
			AddTo(want, r)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("AddTo4[%d] = %v, four AddTo calls give %v", i, got[i], want[i])
			}
		}

		rng := rand.New(rand.NewSource(28))
		draws := append(kernelDraws[:len(kernelDraws):len(kernelDraws)], struct {
			name string
			draw func(*rand.Rand, int) []float64
		}{"payload", payloadVec})
		for _, in := range draws {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 67, prefetchMax + 3} {
				for off := 0; off < 4; off++ {
					for hint := 0; hint < 3; hint++ {
						for _, alias := range []bool{false, true} {
							orig := in.draw(rng, n)
							var src [4][]float64
							for q := range src {
								src[q] = in.draw(rng, n)
							}
							var next [][]float64
							switch hint {
							case 1:
								next = [][]float64{in.draw(rng, n), in.draw(rng, n+3), in.draw(rng, n), in.draw(rng, n)}
							case 2:
								next = [][]float64{nil, in.draw(rng, n/2)}
							}
							nextWas := make([][]float64, len(next))
							for q := range next {
								nextWas[q] = CloneVec(next[q])
							}
							terms := src
							if alias {
								terms[0] = orig
							}
							want, spec := CloneVec(orig), CloneVec(orig)
							for _, r := range terms {
								AddTo(want, r)
								for i, x := range r {
									spec[i] = accFirstAdd(spec[i], x)
								}
							}
							got := offAligned(orig, off)
							var ops [4][]float64
							for q := range ops {
								ops[q] = offAligned(src[q], (off+q+1)%4)
							}
							if alias {
								ops[0] = got
							}
							AddTo4(got, ops[0], ops[1], ops[2], ops[3], next...)
							for i := range want {
								if !sameResult(got[i], want[i]) {
									t.Fatalf("%s n=%d off=%d hint=%d alias=%v: AddTo4[%d] = %v, four AddTo calls give %v", in.name, n, off, hint, alias, i, got[i], want[i])
								}
								if path >= AVX2 && math.Float64bits(got[i]) != math.Float64bits(spec[i]) {
									t.Fatalf("%s n=%d off=%d hint=%d alias=%v: AddTo4[%d] = %#x, accumulator-first adds give %#x", in.name, n, off, hint, alias, i, math.Float64bits(got[i]), math.Float64bits(spec[i]))
								}
							}
							for q := range next {
								if !slices.Equal(bitsOf(next[q]), bitsOf(nextWas[q])) {
									t.Fatalf("%s n=%d: AddTo4 changed hint row %d", in.name, n, q)
								}
							}
						}
					}
				}
			}
		}
	})
}

// accFirstAdd is acc + x with the one choice IEEE 754 leaves to the
// implementation spelled out the way AddTo4's AVX2 body makes it: when an
// operand is a NaN the result is the accumulator's NaN if it is one, else
// x's, quieted. Only non-NaN operands reach the +, where operand order does
// not matter (∞ − ∞ is the CPU's default NaN either way).
func accFirstAdd(acc, x float64) float64 {
	const quiet = 1 << 51
	switch {
	case math.IsNaN(acc):
		return math.Float64frombits(math.Float64bits(acc) | quiet)
	case math.IsNaN(x):
		return math.Float64frombits(math.Float64bits(x) | quiet)
	}
	return acc + x
}

// aFirstMul is a·x with IEEE 754's NaN choice made as the assembly makes it
// for every multiply: the scale factor is the first source, so its NaN wins
// when both are NaN (accFirstAdd's rule). Non-NaN operands multiply as Go
// multiplies them, 0·∞ giving the CPU's default NaN.
func aFirstMul(a, x float64) float64 {
	const quiet = 1 << 51
	switch {
	case math.IsNaN(a):
		return math.Float64frombits(math.Float64bits(a) | quiet)
	case math.IsNaN(x):
		return math.Float64frombits(math.Float64bits(x) | quiet)
	}
	return a * x
}

// refAXPY is AXPY written out, dst[i] += a·x[i]: the reference the kernels
// that stream rows (AXPY, AXPYZero, AXPY4, AXPY4Zero) are held to on every
// path. It is a test's own loop so that a mistake shared by the package's
// bodies — a fused multiply-add, say — cannot pass by agreeing with itself.
func refAXPY(dst []float64, a float64, x []float64) {
	for i := range dst {
		dst[i] += a * x[i]
	}
}

// bitsOf is v's bit patterns, for comparisons in which a NaN must equal
// itself.
func bitsOf(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// payloadVec is edgeVec with NaNs that differ in sign and payload, quiet and
// signalling, so that when two meet the payload that survives shows which
// operand an add took it from.
func payloadVec(rng *rand.Rand, n int) []float64 {
	nans := [...]uint64{0x7ff8000000000abc, 0xfff8000000000123, 0x7ff0000000000001, 0xfff4000000000777}
	v := edgeVec(rng, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = math.Float64frombits(nans[rng.Intn(len(nans))])
		}
	}
	return v
}

// AXPY4 must round exactly as four successive AXPY calls do, on every
// kernel path: every length across the lane width and its scalar tail,
// operands starting 0–3 words off 32-byte alignment. The reference is the
// loop written out (refAXPY), not the package's AXPY, whose assembly body a
// shared mistake could bend the same way.
func TestAXPY4MatchesFourAXPY(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for _, in := range kernelDraws {
			for n := 0; n <= 67; n++ {
				xs := make([][]float64, 4)
				as := in.draw(rng, 4)
				for q := range xs {
					xs[q] = offAligned(in.draw(rng, n), (n+q)%4)
				}
				want := in.draw(rng, n)
				got := offAligned(want, (n+1)%4)
				AXPY4(got, as[0], xs[0], as[1], xs[1], as[2], xs[2], as[3], xs[3])
				for q := range xs {
					refAXPY(want, as[q], xs[q])
				}
				for i := range want {
					if !sameResult(got[i], want[i]) {
						t.Fatalf("%s n=%d: AXPY4[%d] = %v, four AXPY loops give %v", in.name, n, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// edgeVec draws from mixedVec's magnitudes and from the values whose
// handling separates "write 0 + a·x" from both "write a·x" and a careless
// rewrite: signed zeros, factors whose product underflows to ±0, NaN, ±Inf.
func edgeVec(rng *rand.Rand, n int) []float64 {
	edge := [...]float64{0, math.Copysign(0, -1), 1e-200, -1e-200, 5e-324, math.NaN(), math.Inf(1), math.Inf(-1)}
	v := mixedVec(rng, n)
	for i := range v {
		if k := rng.Intn(2 * len(edge)); k < len(edge) {
			v[i] = edge[k]
		}
	}
	return v
}

// sameResult reports whether two kernels stored the same float64: equal
// bits, or both NaN — when two NaN terms meet, which payload survives the
// add depends on an operand order the compiler is free to choose per
// function, and no caller reads a payload.
func sameResult(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func nanVec(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.NaN()
	}
	return v
}

// The write-first kernels must store what a zero fill followed by the
// written-out AXPY loop stores — +0 where the product is −0 — and never read
// dst, on every kernel path.
func TestWriteFirstKernelsMatchZeroFill(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		negZero := math.Copysign(0, -1)
		for n := 0; n <= 67; n++ {
			for trial := 0; trial < 8; trial++ {
				xs := make([][]float64, 4)
				as := edgeVec(rng, 4)
				for q := range xs {
					xs[q] = edgeVec(rng, n)
				}
				if trial == 0 {
					as[0] = negZero
				}

				got, want := nanVec(n), nanVec(n)
				AXPYZero(got, as[0], xs[0])
				ZeroVec(want)
				refAXPY(want, as[0], xs[0])
				for i := range want {
					if !sameResult(got[i], want[i]) {
						t.Fatalf("n=%d: AXPYZero[%d] = %v for %v·%v, zero fill + AXPY loop gives %v", n, i, got[i], as[0], xs[0][i], want[i])
					}
				}

				got, want = nanVec(n), nanVec(n)
				AXPY4Zero(got, as[0], xs[0], as[1], xs[1], as[2], xs[2], as[3], xs[3])
				ZeroVec(want)
				for q := range xs {
					refAXPY(want, as[q], xs[q])
				}
				for i := range want {
					if !sameResult(got[i], want[i]) {
						t.Fatalf("n=%d: AXPY4Zero[%d] = %v, zero fill + four AXPY loops give %v", n, i, got[i], want[i])
					}
				}
			}
		}
		// The case the literal 0 + exists for, spelled out: each product is −0,
		// the stored value +0.
		got := nanVec(3)
		AXPYZero(got, -1e-200, []float64{0, 1e-200, 5e-324})
		for i, v := range got {
			if math.Float64bits(v) != 0 {
				t.Errorf("AXPYZero[%d] = %v (bits %#x), want +0", i, v, math.Float64bits(v))
			}
		}
		AXPY4Zero(got, -1e-200, []float64{0, 1e-200, 5e-324}, 0, []float64{1, 1, 1}, 0, []float64{1, 1, 1}, 0, []float64{1, 1, 1})
		for i, v := range got {
			if math.Float64bits(v) != 0 {
				t.Errorf("AXPY4Zero[%d] = %v (bits %#x), want +0", i, v, math.Float64bits(v))
			}
		}
	})
}

// AXPY and AXPYZero share one assembly body, so neither can be the other's
// reference: both are held to refAXPY, on every path, at every length across
// the sixteen-column pass, the lane group and the scalar tail (0–67), at a
// batch gradient row (2,048) and at a wide-gather update (131,072), with
// operands 0–3 words off 32-byte alignment. The draws carry ±0, products
// that underflow to −0, subnormals, ±Inf and NaNs of distinct payloads in the
// factor, the row and the accumulator. On the assembly paths every bit must
// equal the factor-first multiply and the accumulator-first add, NaN payloads
// included; the Go loops are held to a NaN for a NaN (sameResult).
func TestAXPYMatchesScalarLoop(t *testing.T) {
	lengths := []int{2048, 131072}
	for n := 67; n >= 0; n-- {
		lengths = append([]int{n}, lengths...)
	}
	draws := append(kernelDraws[:len(kernelDraws):len(kernelDraws)], struct {
		name string
		draw func(*rand.Rand, int) []float64
	}{"payload", payloadVec})
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(45))
		for _, in := range draws {
			for _, n := range lengths {
				trials := 4
				if n > 67 {
					trials = 1
				}
				for trial := 0; trial < trials; trial++ {
					a := payloadVec(rng, 1)[0]
					if trial == 0 {
						a = in.draw(rng, 1)[0]
					}
					off := (n + trial) % 4
					x := offAligned(in.draw(rng, n), (off+1)%4)
					orig := in.draw(rng, n)
					for _, zero := range []bool{false, true} {
						got, want := offAligned(orig, off), CloneVec(orig)
						name := "AXPY"
						if zero {
							name = "AXPYZero"
							got = offAligned(nanVec(n), off)
							ZeroVec(want)
							AXPYZero(got, a, x)
						} else {
							AXPY(got, a, x)
						}
						refAXPY(want, a, x)
						for i := range want {
							if !sameResult(got[i], want[i]) {
								t.Fatalf("%s n=%d: %s[%d] = %v for %v + %v·%v, the written-out loop gives %v", in.name, n, name, i, got[i], orig[i], a, x[i], want[i])
							}
							acc := orig[i]
							if zero {
								acc = 0
							}
							if spec := accFirstAdd(acc, aFirstMul(a, x[i])); path >= AVX2 && math.Float64bits(got[i]) != math.Float64bits(spec) {
								t.Fatalf("%s n=%d: %s[%d] = %#x, factor-first multiply and accumulator-first add give %#x", in.name, n, name, i, math.Float64bits(got[i]), math.Float64bits(spec))
							}
						}
					}
				}
			}
		}
		// The −0 products spelled out, at every length class: AXPY keeps a −0
		// row's sign (−0 + −0), AXPYZero stores +0.
		for _, n := range []int{3, 4, 16, 19} {
			x, row := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i] = [...]float64{0, 1e-200, 5e-324}[i%3]
				row[i] = math.Copysign(0, -1)
			}
			AXPY(row, -1e-200, x)
			got := nanVec(n)
			AXPYZero(got, -1e-200, x)
			for i := range x {
				if math.Float64bits(row[i]) != 1<<63 || math.Float64bits(got[i]) != 0 {
					t.Errorf("n=%d [%d]: AXPY = %v (bits %#x), want −0; AXPYZero = %v (bits %#x), want +0", n, i, row[i], math.Float64bits(row[i]), got[i], math.Float64bits(got[i]))
				}
			}
		}
	})
}

// SumInto must store what a zero fill followed by one AddTo per row stores,
// for every row count around its two-row first pass, and never read dst, on
// every kernel path (it has no assembly of its own; this holds it there
// should it ever reach a body that does).
func TestSumIntoMatchesZeroFillAddTo(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for _, c := range []int{0, 1, 2, 3, 5} {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 63, 64, 65} {
				srcs := make([][]float64, c)
				for j := range srcs {
					srcs[j] = edgeVec(rng, n)
				}
				got, want := nanVec(n), nanVec(n)
				SumInto(got, srcs)
				ZeroVec(want)
				for _, s := range srcs {
					for i, x := range s {
						want[i] += x
					}
				}
				for i := range want {
					if !sameResult(got[i], want[i]) {
						t.Fatalf("c=%d n=%d: SumInto[%d] = %v, zero fill + one add per row gives %v", c, n, i, got[i], want[i])
					}
				}
			}
		}
		negZero := math.Copysign(0, -1)
		got := nanVec(1)
		if SumInto(got, [][]float64{{negZero}}); math.Float64bits(got[0]) != 0 {
			t.Errorf("SumInto of a lone −0 = %v (bits %#x), want +0", got[0], math.Float64bits(got[0]))
		}
		if SumInto(got, [][]float64{{negZero}, {negZero}}); math.Float64bits(got[0]) != 0 {
			t.Errorf("SumInto of −0 and −0 = %v (bits %#x), want +0", got[0], math.Float64bits(got[0]))
		}
	})
}

// Scale by exactly 1 is the identity on every bit pattern, so its early
// return stores nothing a multiply would not have stored.
func TestScaleByOneLeavesBits(t *testing.T) {
	v := []float64{
		math.Float64frombits(0x7ff8000000000abc), // quiet NaN with a payload
		math.Float64frombits(0xfff8000000000123), // the same, sign set
		math.Copysign(0, -1), 0, 5e-324, -1e308, math.Inf(-1),
	}
	want := make([]uint64, len(v))
	for i, x := range v {
		want[i] = math.Float64bits(x)
	}
	Scale(v, 1)
	for i, x := range v {
		if math.Float64bits(x) != want[i] {
			t.Errorf("Scale(v, 1)[%d] = %#x, want %#x untouched", i, math.Float64bits(x), want[i])
		}
	}
	// One ulp off 1 is not the identity exit.
	w := []float64{3}
	if Scale(w, math.Nextafter(1, 2)); w[0] == 3 {
		t.Error("Scale by 1+ulp left the value untouched")
	}
}

// mixedVec draws values whose magnitudes mix 1e16, 1 and −1e16, so sums
// over them absorb and cancel: any reassociation shows up in the bits.
func mixedVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * [...]float64{1e16, 1, -1e16}[rng.Intn(3)]
	}
	return v
}

// scalarDot is the reference: one accumulator, left to right.
func scalarDot(w, x []float64) float64 {
	s := 0.0
	for j, xj := range x {
		s += w[j] * xj
	}
	return s
}

// MatVecInto must give every row the bits of its own left-to-right dot,
// for every rows mod 4, every width around the unroll, and strides wider
// than the row.
func TestMatVecIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for rows := 0; rows <= 9; rows++ {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 63, 64, 65} {
			for _, pad := range []int{0, 3} {
				stride := n + pad
				w, x := mixedVec(rng, rows*stride), mixedVec(rng, n)
				got := mixedVec(rng, rows) // old contents must be overwritten
				MatVecInto(got, w, stride, x)
				for i := range got {
					want := scalarDot(w[i*stride:i*stride+n], x)
					if math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("rows=%d n=%d stride=%d: row %d = %v, scalar dot gives %v", rows, n, stride, i, got[i], want)
					}
				}
			}
		}
	}
}

// The guard for the comparisons above: on the same kind of input a dot that
// splits the sum over two accumulators does differ in bits, so a blocked
// kernel that reassociated could not pass them.
func TestReassociatedDotDiffersInBits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	differ := 0
	for trial := 0; trial < 20; trial++ {
		w, x := mixedVec(rng, 64), mixedVec(rng, 64)
		even, odd := 0.0, 0.0
		for j := 0; j < len(x); j += 2 {
			even += w[j] * x[j]
			odd += w[j+1] * x[j+1]
		}
		if math.Float64bits(even+odd) != math.Float64bits(scalarDot(w, x)) {
			differ++
		}
	}
	if differ < 10 {
		t.Fatalf("two-accumulator dot matched the scalar dot bit for bit on %d of 20 inputs: the inputs have no teeth", 20-differ)
	}
}

func TestVectorOpsPanicOnMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"AddTo":      func() { AddTo([]float64{1}, []float64{1, 2}) },
		"AddTo4":     func() { AddTo4([]float64{1}, []float64{1}, []float64{1}, []float64{1}, []float64{1, 2}) },
		"AXPY":       func() { AXPY([]float64{1}, 2, []float64{1, 2}) },
		"AXPY4":      func() { AXPY4([]float64{1}, 2, []float64{1}, 2, []float64{1}, 2, []float64{1}, 2, []float64{1, 2}) },
		"AXPYZero":   func() { AXPYZero([]float64{1}, 2, []float64{1, 2}) },
		"AXPY4Zero":  func() { AXPY4Zero([]float64{1}, 2, []float64{1}, 2, []float64{1}, 2, []float64{1}, 2, []float64{1, 2}) },
		"SumInto":    func() { SumInto([]float64{1}, [][]float64{{1}, {1}, {1, 2}}) },
		"MatVecInto": func() { MatVecInto([]float64{0, 0}, []float64{1, 2, 3}, 2, []float64{1, 2}) },
		"ScaleInto":  func() { ScaleInto([]float64{1}, 2, []float64{1, 2}) },
		"Dot":        func() { Dot([]float64{1}, []float64{1, 2}) },
		"MaxAbsDiff": func() { MaxAbsDiff([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("Set/At broken")
	}
	r := m.Row(1)
	r[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must be a view")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone must deep-copy")
	}
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 5 {
		t.Fatal("T broken")
	}
}

func TestMatVecAndVecMat(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	y, err := m.MatVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MatVec = %v", y)
	}
	z, err := m.VecMat([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if z[0] != 5 || z[1] != 7 || z[2] != 9 {
		t.Fatalf("VecMat = %v", z)
	}
	if _, err := m.MatVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("MatVec shape error = %v", err)
	}
	if _, err := m.VecMat([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("VecMat shape error = %v", err)
	}
}

func TestMatMul(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	b := NewMatrix(2, 2)
	copy(b.Data, []float64{0, 1, 1, 0})
	c, err := a.MatMul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 1, 4, 3}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
	if _, err := a.MatMul(NewMatrix(3, 2)); !errors.Is(err, ErrShape) {
		t.Fatal("expected shape error")
	}
}

func TestSelectRows(t *testing.T) {
	m := NewMatrix(3, 2)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	s, err := m.SelectRows([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0, 0) != 5 || s.At(1, 1) != 2 {
		t.Fatalf("SelectRows = %v", s.Data)
	}
	if _, err := m.SelectRows([]int{3}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := m.SelectRows([]int{-1}); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := NewMatrix(3, 3)
	copy(a.Data, []float64{2, 1, -1, -3, -1, 2, -2, 1, 2})
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-9) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
	// Inputs must be unmodified.
	if a.At(0, 0) != 2 || b[0] != 8 {
		t.Fatal("Solve must not modify inputs")
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Leading zero pivot forces a row swap.
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{0, 1, 1, 0})
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 7, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 2, 4})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := Solve(NewMatrix(2, 3), []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatal("expected shape error for non-square")
	}
	if _, err := Solve(NewMatrix(2, 2), []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatal("expected shape error for bad b")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent: recovers exact solution.
	a := NewMatrix(4, 2)
	copy(a.Data, []float64{1, 0, 0, 1, 1, 1, 2, 1})
	xTrue := []float64{3, -2}
	b, err := a.MatVec(xTrue)
	if err != nil {
		t.Fatal(err)
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xTrue {
		if !almostEqual(x[i], xTrue[i], 1e-9) {
			t.Fatalf("x = %v, want %v", x, xTrue)
		}
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The residual of a least-squares solution is orthogonal to the column
	// space: Aᵀ(Ax − b) = 0.
	rng := rand.New(rand.NewSource(3))
	a := NewMatrix(6, 3)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := make([]float64, 6)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax, err := a.MatVec(x)
	if err != nil {
		t.Fatal(err)
	}
	res := CloneVec(ax)
	AXPY(res, -1, b)
	atr, err := a.T().MatVec(res)
	if err != nil {
		t.Fatal(err)
	}
	if Norm2(atr) > 1e-8 {
		t.Fatalf("‖Aᵀr‖ = %v, want ~0", Norm2(atr))
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(NewMatrix(3, 2), []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatal("expected shape error")
	}
	// Rank-deficient A: duplicate columns.
	a := NewMatrix(3, 2)
	copy(a.Data, []float64{1, 1, 2, 2, 3, 3})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveAnyUniqueSystem(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{2, 0, 0, 4})
	x, err := SolveAny(a, []float64{6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 3, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveAnyRankDeficientConsistent(t *testing.T) {
	// Duplicate rows: consistent, infinitely many solutions.
	a := NewMatrix(3, 2)
	copy(a.Data, []float64{1, 1, 1, 1, 2, 0})
	b := []float64{3, 3, 2}
	x, err := SolveAny(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax, err := a.MatVec(x)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(ax, b) > 1e-9 {
		t.Fatalf("A·x = %v, want %v", ax, b)
	}
}

func TestSolveAnyUnderdetermined(t *testing.T) {
	// One equation, three unknowns: free variables must be zero.
	a := NewMatrix(1, 3)
	copy(a.Data, []float64{0, 2, 0})
	x, err := SolveAny(a, []float64{10})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 || !almostEqual(x[1], 5, 1e-12) || x[2] != 0 {
		t.Fatalf("x = %v, want [0 5 0]", x)
	}
}

func TestSolveAnyInconsistent(t *testing.T) {
	a := NewMatrix(2, 1)
	copy(a.Data, []float64{1, 1})
	if _, err := SolveAny(a, []float64{1, 2}); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
}

func TestSolveAnyShapeError(t *testing.T) {
	if _, err := SolveAny(NewMatrix(2, 2), []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatal("expected shape error")
	}
}

// Property: for random consistent systems (b = A·x0), SolveAny returns some
// x with A·x = b.
func TestQuickSolveAnyConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		a := NewMatrix(rows, cols)
		for i := range a.Data {
			// Low-rank-ish: occasionally zero entries and duplicated rows.
			if rng.Float64() < 0.3 {
				a.Data[i] = 0
			} else {
				a.Data[i] = rng.NormFloat64()
			}
		}
		if rows > 1 && rng.Float64() < 0.5 {
			copy(a.Row(rows-1), a.Row(0)) // force rank deficiency
		}
		x0 := make([]float64, cols)
		for i := range x0 {
			x0[i] = rng.NormFloat64()
		}
		b, err := a.MatVec(x0)
		if err != nil {
			return false
		}
		x, err := SolveAny(a, b)
		if err != nil {
			return false
		}
		ax, err := a.MatVec(x)
		if err != nil {
			return false
		}
		return MaxAbsDiff(ax, b) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Solve returns x with A·x ≈ b for random well-conditioned
// systems (diagonally dominant by construction).
func TestQuickSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		ax, err := a.MatVec(x)
		if err != nil {
			return false
		}
		return MaxAbsDiff(ax, b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: (AᵀB)ᵀ = BᵀA for random matrices.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c, k := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := NewMatrix(r, c)
		b := NewMatrix(r, k)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		atb, err := a.T().MatMul(b)
		if err != nil {
			return false
		}
		bta, err := b.T().MatMul(a)
		if err != nil {
			return false
		}
		lhs := atb.T()
		return MaxAbsDiff(lhs.Data, bta.Data) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
