package model

import (
	"math"
	"math/rand"
	"testing"

	"isgc/internal/dataset"
)

// numericalGrad approximates the gradient of m.Loss by central differences —
// the oracle every analytic Grad implementation is checked against.
func numericalGrad(m Model, params []float64, batch []dataset.Sample) []float64 {
	const h = 1e-6
	g := make([]float64, len(params))
	p := make([]float64, len(params))
	copy(p, params)
	for j := range p {
		orig := p[j]
		p[j] = orig + h
		lp := m.Loss(p, batch)
		p[j] = orig - h
		lm := m.Loss(p, batch)
		p[j] = orig
		g[j] = (lp - lm) / (2 * h)
	}
	return g
}

func randomBatch(rng *rand.Rand, n, dim int, classes int) []dataset.Sample {
	batch := make([]dataset.Sample, n)
	for i := range batch {
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		var y float64
		if classes <= 0 {
			y = rng.NormFloat64() // regression target
		} else {
			y = float64(rng.Intn(classes))
		}
		batch[i] = dataset.Sample{X: x, Y: y}
	}
	return batch
}

func checkGradAgainstNumerical(t *testing.T, m Model, batch []dataset.Sample, seed int64, tol float64) {
	t.Helper()
	params := m.InitParams(seed)
	// Move away from the origin so gradients are non-trivial.
	rng := rand.New(rand.NewSource(seed + 1))
	for j := range params {
		params[j] += 0.3 * rng.NormFloat64()
	}
	analytic := m.Grad(params, batch)
	numeric := numericalGrad(m, params, batch)
	if len(analytic) != m.Dim() {
		t.Fatalf("%s: grad dim %d ≠ %d", m, len(analytic), m.Dim())
	}
	for j := range analytic {
		if diff := math.Abs(analytic[j] - numeric[j]); diff > tol {
			t.Fatalf("%s: grad[%d] analytic %v vs numeric %v (diff %g)", m, j, analytic[j], numeric[j], diff)
		}
	}
	// GradInto is the same kernel writing into caller scratch: bit-identical.
	into := make([]float64, m.Dim())
	m.GradInto(into, params, batch)
	for j := range analytic {
		if into[j] != analytic[j] {
			t.Fatalf("%s: GradInto[%d] = %v, Grad = %v (must be bit-identical)", m, j, into[j], analytic[j])
		}
	}
}

func TestLinearRegressionGradMatchesNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := LinearRegression{Features: 6}
	checkGradAgainstNumerical(t, m, randomBatch(rng, 12, 6, 0), 2, 1e-5)
}

func TestLogisticRegressionGradMatchesNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := LogisticRegression{Features: 5}
	checkGradAgainstNumerical(t, m, randomBatch(rng, 12, 5, 2), 3, 1e-5)
}

func TestSoftmaxRegressionGradMatchesNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := SoftmaxRegression{Features: 4, Classes: 3}
	checkGradAgainstNumerical(t, m, randomBatch(rng, 10, 4, 3), 4, 1e-5)
}

func TestMLPGradMatchesNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := MLP{Features: 3, Hidden: 4, Classes: 3}
	checkGradAgainstNumerical(t, m, randomBatch(rng, 8, 3, 3), 5, 1e-4)
}

func TestDims(t *testing.T) {
	if (LinearRegression{Features: 7}).Dim() != 7 {
		t.Error("linreg dim")
	}
	if (LogisticRegression{Features: 7}).Dim() != 7 {
		t.Error("logreg dim")
	}
	if (SoftmaxRegression{Features: 4, Classes: 3}).Dim() != 12 {
		t.Error("softmax dim")
	}
	m := MLP{Features: 3, Hidden: 5, Classes: 2}
	if m.Dim() != 3*5+5+5*2+2 {
		t.Errorf("mlp dim = %d", m.Dim())
	}
	if len(m.InitParams(1)) != m.Dim() {
		t.Error("mlp init length")
	}
}

func TestInitParamsDeterministic(t *testing.T) {
	for _, m := range []Model{
		LinearRegression{Features: 5},
		LogisticRegression{Features: 5},
		SoftmaxRegression{Features: 4, Classes: 3},
		MLP{Features: 3, Hidden: 4, Classes: 2},
	} {
		a, b := m.InitParams(9), m.InitParams(9)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("%s: InitParams not deterministic", m)
			}
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	for _, m := range []Model{
		LinearRegression{Features: 3},
		LogisticRegression{Features: 3},
		SoftmaxRegression{Features: 3, Classes: 2},
		MLP{Features: 3, Hidden: 2, Classes: 2},
	} {
		params := m.InitParams(1)
		if m.Loss(params, nil) != 0 {
			t.Errorf("%s: empty-batch loss must be 0", m)
		}
		g := m.Grad(params, nil)
		if len(g) != m.Dim() {
			t.Errorf("%s: empty-batch grad must have full dim", m)
		}
		poison(g) // an empty batch still overwrites: old contents become zeros
		m.GradInto(g, params, nil)
		for _, v := range g {
			if v != 0 {
				t.Errorf("%s: empty-batch grad must be zero", m)
			}
		}
	}
}

// SGD on each model must drive the loss down on a learnable task.
func TestSGDDecreasesLoss(t *testing.T) {
	linData, _, err := dataset.SyntheticLinear(256, 6, 0.05, 10)
	if err != nil {
		t.Fatal(err)
	}
	clsData, err := dataset.SyntheticClusters(256, 6, 3, 4.0, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Binary version for logistic regression.
	binSamples := make([]dataset.Sample, 0, 256)
	for i := 0; i < clsData.Len(); i++ {
		s := clsData.At(i)
		if s.Y < 2 {
			binSamples = append(binSamples, s)
		}
	}
	binData, err := dataset.New(binSamples)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		m    Model
		data *dataset.Dataset
		lr   float64
	}{
		{LinearRegression{Features: 6}, linData, 0.05},
		{LogisticRegression{Features: 6}, binData, 0.2},
		{SoftmaxRegression{Features: 6, Classes: 3}, clsData, 0.2},
		{MLP{Features: 6, Hidden: 8, Classes: 3}, clsData, 0.2},
	}
	for _, tc := range cases {
		all := make([]dataset.Sample, tc.data.Len())
		for i := range all {
			all[i] = tc.data.At(i)
		}
		params := tc.m.InitParams(42)
		initial := tc.m.Loss(params, all)
		for step := 0; step < 150; step++ {
			g := tc.m.Grad(params, all)
			for j := range params {
				params[j] -= tc.lr * g[j]
			}
		}
		final := tc.m.Loss(params, all)
		if !(final < 0.6*initial) {
			t.Errorf("%s: loss %v → %v; expected ≥40%% reduction", tc.m, initial, final)
		}
	}
}

// Gradient linearity: the mean gradient over a union of equal-size batches
// is the mean of per-batch gradients — the algebraic fact that makes
// summing per-partition gradients (IS-GC encoding) equal the gradient over
// the union of partitions.
func TestGradLinearityOverBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	m := SoftmaxRegression{Features: 4, Classes: 3}
	params := m.InitParams(7)
	b1 := randomBatch(rng, 10, 4, 3)
	b2 := randomBatch(rng, 10, 4, 3)
	union := append(append([]dataset.Sample{}, b1...), b2...)
	g1 := m.Grad(params, b1)
	g2 := m.Grad(params, b2)
	gu := m.Grad(params, union)
	for j := range gu {
		if diff := math.Abs(gu[j] - (g1[j]+g2[j])/2); diff > 1e-12 {
			t.Fatalf("grad[%d]: union %v ≠ mean of parts %v", j, gu[j], (g1[j]+g2[j])/2)
		}
	}
}

func TestSigmoidStability(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Errorf("sigmoid(1000) = %v", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Errorf("sigmoid(-1000) = %v", s)
	}
	if s := sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %v", s)
	}
}

func TestLogSumExpStability(t *testing.T) {
	z := []float64{1000, 1000}
	if got := logSumExp(z); math.IsInf(got, 1) || math.Abs(got-(1000+math.Log(2))) > 1e-9 {
		t.Errorf("logSumExp overflow: %v", got)
	}
	z2 := []float64{-1000, -1000}
	if got := logSumExp(z2); math.IsInf(got, -1) || math.Abs(got-(-1000+math.Log(2))) > 1e-9 {
		t.Errorf("logSumExp underflow: %v", got)
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	p := []float64{1, 2, 3, 1000}
	softmaxInPlace(p)
	sum := 0.0
	for _, v := range p {
		if v < 0 {
			t.Fatal("negative probability")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sums to %v", sum)
	}
}

func TestStringers(t *testing.T) {
	for _, m := range []Model{
		LinearRegression{Features: 2},
		LogisticRegression{Features: 2},
		SoftmaxRegression{Features: 2, Classes: 2},
		MLP{Features: 2, Hidden: 2, Classes: 2},
	} {
		if m.String() == "" {
			t.Errorf("%T: empty String()", m)
		}
	}
}
