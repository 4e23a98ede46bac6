package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"isgc/internal/dataset"
	"isgc/internal/linalg"
	"isgc/internal/linalg/kerneltest"
)

// eachKernelPath runs fn as one subtest per body of linalg's vector kernels:
// every bit-identity and allocation pin below holds under the portable Go
// loops and under each assembly body the host has (AVX2, AVX-512).
func eachKernelPath(t *testing.T, fn func(t *testing.T)) {
	kerneltest.EachPath(t, func(path string) { t.Run(path, fn) })
}

// kernelInputs are the four input regimes of the bit-identity test.
// "unit" is ordinary data, where almost any reassociation already moves a
// last bit. "mixed" draws features and parameters at magnitudes 1e16, 1 and
// −1e16, so every forward sum absorbs and cancels. "mixed-x" keeps the
// features mixed but the parameters tiny, so activations stay unsaturated
// and the backward pass accumulates terms of wildly different size across
// the samples of a batch — the per-element sample order is what it pins.
// "signed-zero" makes two features in three +0 or −0, so most backward
// products a·x are −0 or +0: a gradient row's first term must be stored as
// 0 + a·x (+0 either way), which is what separates the write-first kernels
// from a plain scaled copy.
// forward and backward say where TestBitIdentityHasTeeth demands that a
// reordered sum shows: "mixed" saturates every activation, so its gradient
// terms are exact in any order; with tiny parameters every logit is ≈ 0 and
// the loss ≈ log K however the dots are summed.
type kernelInput struct {
	name              string
	xMixed, pMixed    bool
	xZeros            bool
	pScale            float64
	forward, backward bool
}

var signedZeroInput = kernelInput{name: "signed-zero", xZeros: true, pScale: 1}

var kernelInputs = []kernelInput{
	{name: "unit", pScale: 1, forward: true, backward: true},
	{name: "mixed", xMixed: true, pMixed: true, pScale: 1, forward: true},
	{name: "mixed-x", xMixed: true, pScale: 1e-17, backward: true},
	signedZeroInput,
}

func drawValue(rng *rand.Rand, mixed bool) float64 {
	v := rng.NormFloat64()
	if mixed {
		v *= [...]float64{1e16, 1, -1e16}[rng.Intn(3)]
	}
	return v
}

func drawInputs(rng *rand.Rand, m Model, features, classes, batch int, in kernelInput) ([]float64, []dataset.Sample) {
	params := make([]float64, m.Dim())
	for j := range params {
		params[j] = in.pScale * drawValue(rng, in.pMixed)
	}
	samples := randomBatch(rng, batch, features, classes)
	for _, s := range samples {
		for j := range s.X {
			s.X[j] = drawValue(rng, in.xMixed)
			if in.xZeros {
				s.X[j] *= [...]float64{1, 0, math.Copysign(0, -1)}[rng.Intn(3)]
			}
		}
	}
	return params, samples
}

func poison(v []float64) {
	for j := range v {
		v[j] = math.NaN()
	}
}

// checkBitIdentical compares Loss, GradInto and Grad of m with the
// one-sample-at-a-time reference on every batch length in batches (prefixes
// of one drawn batch), bit for bit. GradInto runs into a destination full of
// NaN: an element read before it is written cannot come out equal.
func checkBitIdentical(t *testing.T, rng *rand.Rand, m Model, features, classes int, batches []int) {
	t.Helper()
	for _, in := range kernelInputs {
		params, samples := drawInputs(rng, m, features, classes, batches[len(batches)-1], in)
		got, want := make([]float64, m.Dim()), make([]float64, m.Dim())
		for _, b := range batches {
			batch := samples[:b]
			if g, w := m.Loss(params, batch), refLoss(m, params, batch); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%v %s batch %d: Loss = %v, reference %v", m, in.name, b, g, w)
			}
			poison(got)
			m.GradInto(got, params, batch)
			refGradInto(m, want, params, batch)
			fresh := m.Grad(params, batch)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%v %s batch %d: grad[%d] = %v, reference %v", m, in.name, b, j, got[j], want[j])
				}
				if math.Float64bits(fresh[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%v %s batch %d: Grad[%d] = %v, reference %v", m, in.name, b, j, fresh[j], want[j])
				}
			}
		}
	}
}

// TestBlockedKernelsBitIdentical: the register-blocked and the vector
// kernels keep every output's own summation order, so Loss and GradInto of
// all four models equal the scalar one-sample-at-a-time reference
// (oracle_test.go) in every bit — across every rows mod 4 and mod 8, every
// batch mod 8 (a padded last group of 2–7, a lone last sample, whole groups
// of eight before either), widths around the unroll and the lane width,
// inputs built to expose any reassociated or fused sum, and every kernel
// path. The MLP's dh
// sums whole W2 rows four classes at a time, so class counts past two such
// groups (10, 12, 13) run at a few hidden widths too, and the benchmark's
// two MLP shapes are pinned as they run.
func TestBlockedKernelsBitIdentical(t *testing.T) {
	features := []int{1, 2, 3, 4, 5, 63, 64, 65}
	batches := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 16, 17, 64}
	eachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(19))
		for _, f := range features {
			checkBitIdentical(t, rng, LinearRegression{Features: f}, f, 0, batches)
			checkBitIdentical(t, rng, LogisticRegression{Features: f}, f, 2, batches)
			for k := 1; k <= 9; k++ {
				checkBitIdentical(t, rng, SoftmaxRegression{Features: f, Classes: k}, f, k, batches)
				for _, h := range []int{1, 3, 4, 7, 8} {
					checkBitIdentical(t, rng, MLP{Features: f, Hidden: h, Classes: k}, f, k, batches)
				}
			}
			for _, k := range []int{10, 12, 13} {
				for _, h := range []int{1, 6, 8} {
					checkBitIdentical(t, rng, MLP{Features: f, Hidden: h, Classes: k}, f, k, batches)
				}
			}
		}
		checkBitIdentical(t, rng, MLP{Features: 64, Hidden: 128, Classes: 10}, 64, 10, batches) // compute-mlp
		checkBitIdentical(t, rng, MLP{Features: 32, Hidden: 64, Classes: 10}, 32, 10, batches)  // straggler-mlp
	})
}

// TestPredictSharesTheForwardPass: Predict is the argmax of the same
// logits Loss scores, and Accuracy — which labels eight samples per grouped
// forward pass instead of calling Predict — is the mean of Predict == y on
// every batch length across two group sizes, on every kernel path.
func TestPredictSharesTheForwardPass(t *testing.T) {
	sm := SoftmaxRegression{Features: 65, Classes: 7}
	mlp := MLP{Features: 65, Hidden: 7, Classes: 7}
	eachKernelPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		for _, in := range kernelInputs {
			sp, samples := drawInputs(rng, sm, 65, 7, 32, in)
			mp, _ := drawInputs(rng, mlp, 65, 7, 1, in)
			h, z := make([]float64, 7), make([]float64, 7)
			for _, s := range samples {
				refSoftmaxLogits(sm, z, sp, s.X)
				if got, want := sm.Predict(sp, s.X), argmax(z); got != want {
					t.Fatalf("%v %s: Predict = %d, reference logits say %d", sm, in.name, got, want)
				}
				refMLPForward(mlp, h, z, mp, s.X)
				if got, want := mlp.Predict(mp, s.X), argmax(z); got != want {
					t.Fatalf("%v %s: Predict = %d, reference logits say %d", mlp, in.name, got, want)
				}
			}
			for _, c := range []struct {
				c      Classifier
				params []float64
			}{{sm, sp}, {mlp, mp}} {
				// Relabel so that every third sample is a miss and the rest are
				// hits: a logit row scored against the wrong sample shows.
				for n := 0; n <= 17; n++ {
					batch, hits, want := make([]dataset.Sample, n), 0, 0.0
					for i, s := range samples[:n] {
						y := c.c.Predict(c.params, s.X)
						if i%3 == 1 {
							y = (y + 1) % 7
						} else {
							hits++
						}
						batch[i] = dataset.Sample{X: s.X, Y: float64(y)}
					}
					if n > 0 {
						want = float64(hits) / float64(n)
					}
					if got := Accuracy(c.c, c.params, batch); got != want {
						t.Fatalf("%v %s batch %d: Accuracy = %v, mean(Predict == y) = %v", c.c, in.name, n, got, want)
					}
				}
			}
		}
	})
}

// TestBitIdentityHasTeeth is the guard for the two tests above, so that
// they cannot pass vacuously. Forward: with the reference's dot split over
// two accumulators — the cheapest reassociation a faster kernel could make —
// the MLP loss changes bits. Backward: the same mean gradient accumulated in
// the reverse sample order changes bits too, and so does one whose dh = W2ᵀ
// dz sums the classes from the last to the first. Write-first: a softmax row
// stored as a·x (linalg.ScaleInto) instead of 0 + a·x keeps the −0 products
// that a zero-filled accumulator turned into +0. All of them on every kernel
// path.
func TestBitIdentityHasTeeth(t *testing.T) {
	eachKernelPath(t, func(t *testing.T) {
		sm := SoftmaxRegression{Features: 64, Classes: 5}
		params, one := drawInputs(rand.New(rand.NewSource(31)), sm, 64, 5, 1, signedZeroInput)
		got, dz, row := sm.Grad(params, one), make([]float64, 5), make([]float64, 64)
		refSoftmaxLogits(sm, dz, params, one[0].X)
		dzInPlace(dz, one[0].Y)
		negZeros := 0
		for k, a := range dz {
			linalg.ScaleInto(row, a, one[0].X)
			for j, v := range row {
				if g := got[k*64+j]; math.Float64bits(v) != math.Float64bits(g) {
					if v != 0 || g != 0 {
						t.Fatalf("row %d[%d]: a·x = %v but the gradient holds %v", k, j, v, g)
					}
					negZeros++
				}
			}
		}
		if negZeros == 0 {
			t.Error("signed-zero: a scaled copy matched 0 + a·x in every bit: the inputs make no −0 product")
		}

		m := MLP{Features: 64, Hidden: 8, Classes: 5}
		for _, in := range kernelInputs {
			rng := rand.New(rand.NewSource(29))
			lossDiffers, gradDiffers, dhDiffers := 0, 0, 0
			for trial := 0; trial < 10; trial++ {
				params, batch := drawInputs(rng, m, 64, 5, 16, in)
				w1, b1, w2, b2 := m.slices(params)
				h, z := make([]float64, m.Hidden), make([]float64, m.Classes)
				sum := 0.0
				for _, s := range batch {
					for i := range h {
						h[i] = math.Tanh(twoAccumulatorDot(w1[i*m.Features:(i+1)*m.Features], s.X) + b1[i])
					}
					for k := range z {
						z[k] = twoAccumulatorDot(w2[k*m.Hidden:(k+1)*m.Hidden], h) + b2[k]
					}
					sum += logSumExp(z) - z[int(s.Y)]
				}
				if math.Float64bits(sum/float64(len(batch))) != math.Float64bits(m.Loss(params, batch)) {
					lossDiffers++
				}
				reversed := make([]dataset.Sample, len(batch))
				for i, s := range batch {
					reversed[len(batch)-1-i] = s
				}
				got, rev := m.Grad(params, batch), make([]float64, m.Dim())
				refMLPGradInto(m, rev, params, reversed)
				if !sameBits(got, rev) {
					gradDiffers++
				}
				if !sameBits(got, classReversedDHGrad(m, params, batch)) {
					dhDiffers++
				}
			}
			if in.forward && lossDiffers < 5 {
				t.Errorf("%s: a two-accumulator dot left the loss bit-identical on %d of 10 inputs", in.name, 10-lossDiffers)
			}
			if in.backward && gradDiffers < 5 {
				t.Errorf("%s: reversing the sample order left the gradient bit-identical on %d of 10 inputs", in.name, 10-gradDiffers)
			}
			if in.backward && dhDiffers < 5 {
				t.Errorf("%s: summing dh over the classes in reverse left the gradient bit-identical on %d of 10 inputs", in.name, 10-dhDiffers)
			}
		}
	})
}

func sameBits(a, b []float64) bool {
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return false
		}
	}
	return true
}

// classReversedDHGrad is refMLPGradInto with one change: every dh[i] =
// Σ_k W2[k,i]·dz[k] runs over the classes from the last to the first, the
// order a kernel walking W2's rows backwards would pick.
func classReversedDHGrad(m MLP, params []float64, batch []dataset.Sample) []float64 {
	F, H, K := m.Features, m.Hidden, m.Classes
	g := make([]float64, m.Dim())
	gW1, gB1, gW2, gB2 := m.slices(g)
	_, _, w2, _ := m.slices(params)
	h, dz := make([]float64, H), make([]float64, K)
	for _, s := range batch {
		refMLPForward(m, h, dz, params, s.X)
		dzInPlace(dz, s.Y)
		for k, d := range dz {
			for i, hi := range h {
				gW2[k*H+i] += d * hi
			}
			gB2[k] += d
		}
		for i, hi := range h {
			dh := 0.0
			for k := K - 1; k >= 0; k-- {
				dh += w2[k*H+i] * dz[k]
			}
			da := dh * (1 - hi*hi)
			for j, x := range s.X {
				gW1[i*F+j] += da * x
			}
			gB1[i] += da
		}
	}
	refScale(g, len(batch))
	return g
}

func twoAccumulatorDot(w, x []float64) float64 {
	even, odd := 0.0, 0.0
	j := 0
	for ; j+2 <= len(x); j += 2 {
		even += w[j] * x[j]
		odd += w[j+1] * x[j+1]
	}
	if j < len(x) {
		even += w[j] * x[j]
	}
	return even + odd
}

// kernelShapes are the model shapes of the committed benchmark's TCP
// workloads, with each workload's own batch size.
var kernelShapes = []struct {
	name              string
	m                 Model
	features, classes int
	batch             int
}{
	{"mlp64x128x10-b64", MLP{Features: 64, Hidden: 128, Classes: 10}, 64, 10, 64},        // compute-mlp
	{"mlp32x64x10-b16", MLP{Features: 32, Hidden: 64, Classes: 10}, 32, 10, 16},          // straggler-mlp
	{"softmax2048x64-b1", SoftmaxRegression{Features: 2048, Classes: 64}, 2048, 64, 1},   // wide-gather, a worker's gradient
	{"softmax2048x64-b64", SoftmaxRegression{Features: 2048, Classes: 64}, 2048, 64, 64}, // wide-gather, the master's full-set loss
}

// BenchmarkKernels times one sequential GradInto and one Loss per shape and
// kernel path (portable Go loops, AVX2 and AVX-512 assembly) and reports
// ns/sample, the unit a worker's c-partition step and the master's full-set
// loss are both made of.
func BenchmarkKernels(b *testing.B) {
	for _, sh := range kernelShapes {
		params := sh.m.InitParams(1)
		batch := randomBatch(rand.New(rand.NewSource(2)), sh.batch, sh.features, sh.classes)
		dst := make([]float64, sh.m.Dim())
		kerneltest.EachPath(b, func(path string) {
			run := func(name string, fn func()) {
				b.Run(fmt.Sprintf("%s/%s/%s", sh.name, name, path), func(b *testing.B) {
					fn() // warm the scratch pool
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						fn()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/sample")
				})
			}
			run("grad", func() { sh.m.GradInto(dst, params, batch) })
			run("loss", func() { benchSink = sh.m.Loss(params, batch) })
		})
	}
}

var benchSink float64
