// Package linalg provides the small dense linear-algebra kernel the rest of
// the repository builds on: vector arithmetic for gradient manipulation,
// dense matrices for the classic gradient-coding construction (Tandon et
// al.), Gaussian elimination with partial pivoting for decode-vector
// solves, and least squares via normal equations.
//
// Only float64 and the standard library are used; this is deliberately a
// minimal, well-tested kernel rather than a general BLAS.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear solve meets a (numerically)
// singular system.
var ErrSingular = errors.New("linalg: singular matrix")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: dimension mismatch")

// pivotEps is the absolute pivot threshold below which a matrix is treated
// as singular during elimination.
const pivotEps = 1e-12

// Vector operations ----------------------------------------------------

// CloneVec returns a copy of v.
func CloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// AddTo adds src into dst element-wise. Panics on length mismatch: callers
// control both operands, so a mismatch is a programming error.
func AddTo(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: AddTo length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, x := range src {
		dst[i] += x
	}
}

// AddTo4 adds four vectors into dst in one pass, associating left to right:
// dst[i] = (((dst[i]+a[i])+b[i])+c[i])+d[i]. Every intermediate is the one
// four successive AddTo calls would round to, so the result is bit-identical
// to them, while dst is read and written once and the four sources stream
// independently. dst may alias a source. Panics on length mismatch, as AddTo
// does.
//
// This is the master's row sum (isgc's Aggregate). On a host with the vector
// kernels (kernels.go) four columns go per lane, each the same chain of
// adds. next, when given, names the rows of the caller's next pass: that
// body prefetches the first four as it streams, because the rows a decode
// chooses sit far apart in memory and the hardware prefetcher does not
// follow them. It is a hint only — next is never read as data, a row of it
// shorter than dst is skipped, rows longer than prefetchMax are not
// prefetched, and the portable loop ignores it.
func AddTo4(dst, a, b, c, d []float64, next ...[]float64) {
	n := len(dst)
	if len(a) != n || len(b) != n || len(c) != n || len(d) != n {
		panic(fmt.Sprintf("linalg: AddTo4 length mismatch %d vs %d, %d, %d, %d", n, len(a), len(b), len(c), len(d)))
	}
	if path >= AVX2 && n > 0 {
		if n > prefetchMax {
			next = nil
		}
		addTo4AVX2(&dst[0], n, &a[0], &b[0], &c[0], &d[0], ahead(next, 0, dst), ahead(next, 1, dst), ahead(next, 2, dst), ahead(next, 3, dst))
		return
	}
	for i := range dst {
		dst[i] = (((dst[i] + a[i]) + b[i]) + c[i]) + d[i]
	}
}

// prefetchMax is the longest row AddTo4 prefetches. A line fetched for the
// next pass is only worth its bandwidth if it is still cached when that pass
// reaches it, after this pass has streamed ĝ, four sources and the four
// prefetched rows. Measured on rows eight rows' length apart, 4 MiB of rows
// per sum (Xeon, 2 vCPUs, AVX2 body), the prefetch cut the time per value by
// 25–40% at 64 values and 10–20% at 256 and 512, was even at 1024, and cost
// 10% at 2048, 10–30% at 16,384 and 50% at 131,072 (1 MiB gradients), where
// the lines were evicted before use and every row was fetched twice.
const prefetchMax = 512

// ahead is the address AddTo4's body prefetches for next[k]: that row when
// it is at least as long as dst (so every prefetched line is the row's
// own), else dst, which is in cache already. dst is not empty.
func ahead(next [][]float64, k int, dst []float64) *float64 {
	if k < len(next) && len(next[k]) >= len(dst) {
		return &next[k][0]
	}
	return &dst[0]
}

// AXPY computes dst += a*src element-wise: dst[i] = dst[i] + a*src[i], one
// rounding for the product and one for the sum. On a host with the vector
// kernels (kernels.go) four columns go per lane group, each the same
// multiply-then-add, so the bits are the Go loop's. It streams the workers'
// batch gradient rows, the MLP's hidden gradient and the master's update.
func AXPY(dst []float64, a float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: AXPY length mismatch %d vs %d", len(dst), len(src)))
	}
	if path >= AVX2 && len(dst) > 0 {
		axpy1AVX2(&dst[0], len(dst), a, &src[0], false)
		return
	}
	for i, x := range src {
		dst[i] += a * x
	}
}

// AXPY4 folds four scaled vectors into dst in one pass, associating left to
// right: dst[i] = (((dst[i]+a0*x0[i])+a1*x1[i])+a2*x2[i])+a3*x3[i]. Every
// intermediate is the one four successive AXPY calls would round to (each
// term keeps AXPY's acc + a*x shape, so a platform that fuses one fuses the
// other): bit-identical to them, with a quarter of the dst loads and stores.
// This is the model kernels' backward step, four samples of a group at a
// time. On a host with the vector kernels (kernels.go) four columns (AVX2)
// or eight (AVX-512) go per lane group, each column the same
// multiply-then-add chain.
func AXPY4(dst []float64, a0 float64, x0 []float64, a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64) {
	n := len(dst)
	if len(x0) != n || len(x1) != n || len(x2) != n || len(x3) != n {
		panic(fmt.Sprintf("linalg: AXPY4 length mismatch %d vs %d, %d, %d, %d", n, len(x0), len(x1), len(x2), len(x3)))
	}
	switch {
	case n == 0:
		return
	case path == AVX512:
		axpy4AVX512(&dst[0], n, a0, &x0[0], a1, &x1[0], a2, &x2[0], a3, &x3[0], false)
		return
	case path == AVX2:
		axpy4AVX2(&dst[0], n, a0, &x0[0], a1, &x1[0], a2, &x2[0], a3, &x3[0], false)
		return
	}
	for i := range dst {
		dst[i] = (((dst[i] + a0*x0[i]) + a1*x1[i]) + a2*x2[i]) + a3*x3[i]
	}
}

// AXPYZero computes dst = 0 + a*src element-wise, overwriting dst without
// reading it: bit-identical to ZeroVec(dst) followed by AXPY(dst, a, src),
// in one store per element and no load. The literal 0 + is the only
// difference from ScaleInto, and it is kept on purpose: a product that is
// −0 (a or src[i] a signed zero, or a·src[i] underflowing from below) sums
// with +0 to +0 exactly as it did on a zero-filled row, where ScaleInto
// would store −0. The term keeps AXPY's acc + a*x shape, so a platform that
// fuses one fuses the other. On a host with the vector kernels it runs
// AXPY's body with the accumulator +0 instead of loaded: the first sample of
// every batch gradient row is written through it.
func AXPYZero(dst []float64, a float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: AXPYZero length mismatch %d vs %d", len(dst), len(src)))
	}
	if path >= AVX2 && len(dst) > 0 {
		axpy1AVX2(&dst[0], len(dst), a, &src[0], true)
		return
	}
	for i, x := range src {
		dst[i] = 0 + a*x
	}
}

// AXPY4Zero is the four-vector form of AXPYZero: dst[i] =
// (((0+a0*x0[i])+a1*x1[i])+a2*x2[i])+a3*x3[i], overwriting dst without
// reading it. Bit-identical to ZeroVec(dst) followed by AXPY4 — the first
// sample group of a gradient row written rather than accumulated.
func AXPY4Zero(dst []float64, a0 float64, x0 []float64, a1 float64, x1 []float64, a2 float64, x2 []float64, a3 float64, x3 []float64) {
	n := len(dst)
	if len(x0) != n || len(x1) != n || len(x2) != n || len(x3) != n {
		panic(fmt.Sprintf("linalg: AXPY4Zero length mismatch %d vs %d, %d, %d, %d", n, len(x0), len(x1), len(x2), len(x3)))
	}
	switch {
	case n == 0:
		return
	case path == AVX512:
		axpy4AVX512(&dst[0], n, a0, &x0[0], a1, &x1[0], a2, &x2[0], a3, &x3[0], true)
		return
	case path == AVX2:
		axpy4AVX2(&dst[0], n, a0, &x0[0], a1, &x1[0], a2, &x2[0], a3, &x3[0], true)
		return
	}
	for i := range dst {
		dst[i] = (((0 + a0*x0[i]) + a1*x1[i]) + a2*x2[i]) + a3*x3[i]
	}
}

// SumInto overwrites dst with the element-wise sum of srcs, associating
// left to right from zero: dst[i] = ((0 + s0[i]) + s1[i]) + s2[i] + …, the
// bits a zero-filled dst and one AddTo per row give. The first two rows go
// in a single pass that never reads dst; further rows are one AddTo each.
// This is the body of every IS-GC encoder (a worker's upload is the plain
// sum of its c partition gradients). The 0 + turns a lone −0 into +0, as
// the zero fill did. No rows zero-fills dst. Panics on length mismatch.
func SumInto(dst []float64, srcs [][]float64) {
	for _, s := range srcs {
		if len(s) != len(dst) {
			panic(fmt.Sprintf("linalg: SumInto length mismatch %d vs %d", len(dst), len(s)))
		}
	}
	switch len(srcs) {
	case 0:
		ZeroVec(dst)
		return
	case 1:
		s0 := srcs[0][:len(dst)]
		for i := range dst {
			dst[i] = 0 + s0[i]
		}
		return
	}
	s0, s1 := srcs[0][:len(dst)], srcs[1][:len(dst)]
	for i := range dst {
		dst[i] = (0 + s0[i]) + s1[i]
	}
	for _, s := range srcs[2:] {
		AddTo(dst, s)
	}
}

// MatVecInto computes dst[i] = ⟨row i of w, x⟩ for a row-major matrix whose
// rows start stride apart and are read over their leading len(x) columns.
// Rows are taken four at a time (dot4), the last len(dst) mod 4 by Dot:
// every dst[i] is its own left-to-right sum, bit-identical to a Dot per row.
func MatVecInto(dst, w []float64, stride int, x []float64) {
	n := len(x)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i], dst[i+1], dst[i+2], dst[i+3] = dot4(w[i*stride:][:n], w[(i+1)*stride:][:n], w[(i+2)*stride:][:n], w[(i+3)*stride:][:n], x)
	}
	for ; i < len(dst); i++ {
		dst[i] = Dot(w[i*stride:][:n], x)
	}
}

// dot4 returns the inner products of four rows with x: four independent
// left-to-right accumulators sharing each x[j] load, so FP-add throughput
// rather than latency sets the pace. It stays its own function because,
// inlined into MatVecInto, the loop counter spills to the stack on every
// iteration (amd64, go1.24): 10–25% slower on the benchmark shapes.
//
//go:noinline
func dot4(r0, r1, r2, r3, x []float64) (s0, s1, s2, s3 float64) {
	r0, r1, r2, r3 = r0[:len(x)], r1[:len(x)], r2[:len(x)], r3[:len(x)]
	for j, xj := range x {
		s0 += r0[j] * xj
		s1 += r1[j] * xj
		s2 += r2[j] * xj
		s3 += r3[j] * xj
	}
	return s0, s1, s2, s3
}

// ScaleInto computes dst = a*src element-wise, overwriting dst. dst may
// alias src (then it degenerates to Scale).
func ScaleInto(dst []float64, a float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: ScaleInto length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, x := range src {
		dst[i] = a * x
	}
}

// ZeroVec sets every element of v to zero, retaining the allocation —
// the reset half of every pooled-buffer reuse.
func ZeroVec(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// Scale multiplies v by a in place. A factor of exactly 1 returns at once:
// x·1.0 is x for every float64 arithmetic produces (−0 and quiet-NaN
// payloads included), so the pass over v would store back the bits it
// loaded — the mean of a one-sample batch is that pass.
func Scale(v []float64, a float64) {
	if a == 1 {
		return
	}
	for i := range v {
		v[i] *= a
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// MaxAbsDiff returns max_i |a[i]-b[i]|, a convenient convergence metric.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: MaxAbsDiff length mismatch %d vs %d", len(a), len(b)))
	}
	m := 0.0
	for i, x := range a {
		if d := math.Abs(x - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Matrix ----------------------------------------------------------------

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MatVec returns m·x.
func (m *Matrix) MatVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("%w: %dx%d · %d", ErrShape, m.Rows, m.Cols, len(x))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out, nil
}

// VecMat returns xᵀ·m as a vector of length Cols.
func (m *Matrix) VecMat(x []float64) ([]float64, error) {
	if len(x) != m.Rows {
		return nil, fmt.Errorf("%w: %d · %dx%d", ErrShape, len(x), m.Rows, m.Cols)
	}
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		AXPY(out, x[i], m.Row(i))
	}
	return out, nil
}

// MatMul returns m·o.
func (m *Matrix) MatMul(o *Matrix) (*Matrix, error) {
	if m.Cols != o.Rows {
		return nil, fmt.Errorf("%w: %dx%d · %dx%d", ErrShape, m.Rows, m.Cols, o.Rows, o.Cols)
	}
	out := NewMatrix(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			AXPY(oi, mi[k], o.Row(k))
		}
	}
	return out, nil
}

// SelectRows returns the submatrix of the given rows (copied).
func (m *Matrix) SelectRows(rows []int) (*Matrix, error) {
	out := NewMatrix(len(rows), m.Cols)
	for i, r := range rows {
		if r < 0 || r >= m.Rows {
			return nil, fmt.Errorf("linalg: row %d out of range [0,%d)", r, m.Rows)
		}
		copy(out.Row(i), m.Row(r))
	}
	return out, nil
}

// Solvers ----------------------------------------------------------------

// Solve solves the square system A·x = b by Gaussian elimination with
// partial pivoting. A and b are left unmodified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: Solve needs square matrix, got %dx%d", ErrShape, a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("%w: b length %d for %dx%d system", ErrShape, len(b), a.Rows, a.Cols)
	}
	n := a.Rows
	m := a.Clone()
	x := CloneVec(b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv, pval := col, math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > pval {
				piv, pval = r, v
			}
		}
		if pval < pivotEps {
			return nil, fmt.Errorf("%w: pivot %g at column %d", ErrSingular, pval, col)
		}
		if piv != col {
			swapRows(m, piv, col)
			x[piv], x[col] = x[col], x[piv]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			AXPY(m.Row(r), -f, m.Row(col))
			m.Set(r, col, 0)
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := m.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// LeastSquares solves min_x ‖A·x − b‖₂ via the normal equations
// AᵀA·x = Aᵀb. A must have full column rank (else ErrSingular).
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("%w: b length %d for %dx%d matrix", ErrShape, len(b), a.Rows, a.Cols)
	}
	at := a.T()
	ata, err := at.MatMul(a)
	if err != nil {
		return nil, err
	}
	atb, err := at.MatVec(b)
	if err != nil {
		return nil, err
	}
	return Solve(ata, atb)
}

// ErrInconsistent is returned by SolveAny when the system has no solution.
var ErrInconsistent = errors.New("linalg: inconsistent system")

// SolveAny returns a particular solution x of the (possibly rectangular,
// possibly rank-deficient) system A·x = b, with free variables set to zero.
// It returns ErrInconsistent when no solution exists. A and b are left
// unmodified. This is what the classic-GC decoder needs: B_{W'} often has
// repeated rows (FR) or more rows than needed (w > n-s), so the decode
// system is consistent but rank-deficient.
func SolveAny(a *Matrix, b []float64) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("%w: b length %d for %dx%d system", ErrShape, len(b), a.Rows, a.Cols)
	}
	m := a.Clone()
	rhs := CloneVec(b)
	maxAbs := 0.0
	for _, v := range m.Data {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	tol := pivotEps
	if maxAbs > 1 {
		tol *= maxAbs
	}
	// Forward elimination to row echelon form, recording pivot columns.
	pivotCols := make([]int, 0, m.Cols)
	row := 0
	for col := 0; col < m.Cols && row < m.Rows; col++ {
		piv, pval := row, math.Abs(m.At(row, col))
		for r := row + 1; r < m.Rows; r++ {
			if v := math.Abs(m.At(r, col)); v > pval {
				piv, pval = r, v
			}
		}
		if pval <= tol {
			continue
		}
		if piv != row {
			swapRows(m, piv, row)
			rhs[piv], rhs[row] = rhs[row], rhs[piv]
		}
		inv := 1 / m.At(row, col)
		for r := row + 1; r < m.Rows; r++ {
			f := m.At(r, col) * inv
			if f != 0 {
				AXPY(m.Row(r), -f, m.Row(row))
				m.Set(r, col, 0)
				rhs[r] -= f * rhs[row]
			}
		}
		pivotCols = append(pivotCols, col)
		row++
	}
	// Consistency: zero rows must have (near-)zero RHS.
	rhsScale := 1.0
	for _, v := range b {
		if av := math.Abs(v); av > rhsScale {
			rhsScale = av
		}
	}
	for r := row; r < m.Rows; r++ {
		if math.Abs(rhs[r]) > 1e-8*rhsScale*float64(m.Cols+1) {
			return nil, fmt.Errorf("%w: residual %g in eliminated row %d", ErrInconsistent, rhs[r], r)
		}
	}
	// Back substitution over pivot columns; free variables stay zero.
	x := make([]float64, m.Cols)
	for k := len(pivotCols) - 1; k >= 0; k-- {
		col := pivotCols[k]
		s := rhs[k]
		rowv := m.Row(k)
		for j := col + 1; j < m.Cols; j++ {
			s -= rowv[j] * x[j]
		}
		x[col] = s / rowv[col]
	}
	return x, nil
}
