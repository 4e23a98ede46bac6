package model

import (
	"math"

	"isgc/internal/dataset"
	"isgc/internal/linalg"
)

// The one-sample-at-a-time reference kernels: the scalar Loss and GradInto
// bodies as they stood before the blocked kernels replaced them, moved here
// verbatim (receivers turned into ref* functions, scratch allocated rather
// than pooled, nothing else). They are the oracle
// TestBlockedKernelsBitIdentical compares against and exist nowhere outside
// this file.

func refDot(w, x []float64) float64 {
	s := 0.0
	for j, xj := range x {
		s += w[j] * xj
	}
	return s
}

func refScale(g []float64, n int) {
	inv := 1 / float64(n)
	for j := range g {
		g[j] *= inv
	}
}

func refLinearLoss(m LinearRegression, params []float64, batch []dataset.Sample) float64 {
	sum := 0.0
	for _, s := range batch {
		r := refDot(params, s.X) - s.Y
		sum += 0.5 * r * r
	}
	return sum / float64(len(batch))
}

func refLinearGradInto(m LinearRegression, g, params []float64, batch []dataset.Sample) {
	linalg.ZeroVec(g)
	for _, s := range batch {
		r := refDot(params, s.X) - s.Y
		for j, x := range s.X {
			g[j] += r * x
		}
	}
	refScale(g, len(batch))
}

func refLogisticLoss(m LogisticRegression, params []float64, batch []dataset.Sample) float64 {
	sum := 0.0
	for _, s := range batch {
		z := refDot(params, s.X)
		yz := z
		if s.Y < 0.5 {
			yz = -z
		}
		sum += math.Log1p(math.Exp(-abs(yz))) + max0(-yz)
	}
	return sum / float64(len(batch))
}

func refLogisticGradInto(m LogisticRegression, g, params []float64, batch []dataset.Sample) {
	linalg.ZeroVec(g)
	for _, s := range batch {
		p := sigmoid(refDot(params, s.X))
		diff := p - s.Y
		for j, x := range s.X {
			g[j] += diff * x
		}
	}
	refScale(g, len(batch))
}

func refSoftmaxLogits(m SoftmaxRegression, z, params []float64, x []float64) {
	for k := 0; k < m.Classes; k++ {
		z[k] = refDot(params[k*m.Features:(k+1)*m.Features], x)
	}
}

func refSoftmaxLoss(m SoftmaxRegression, params []float64, batch []dataset.Sample) float64 {
	z := make([]float64, m.Classes)
	sum := 0.0
	for _, s := range batch {
		refSoftmaxLogits(m, z, params, s.X)
		lse := logSumExp(z)
		sum += lse - z[int(s.Y)]
	}
	return sum / float64(len(batch))
}

func refSoftmaxGradInto(m SoftmaxRegression, g, params []float64, batch []dataset.Sample) {
	linalg.ZeroVec(g)
	z := make([]float64, m.Classes)
	for _, s := range batch {
		refSoftmaxLogits(m, z, params, s.X)
		softmaxInPlace(z)
		y := int(s.Y)
		for k := 0; k < m.Classes; k++ {
			diff := z[k]
			if k == y {
				diff -= 1
			}
			row := g[k*m.Features : (k+1)*m.Features]
			for j, x := range s.X {
				row[j] += diff * x
			}
		}
	}
	refScale(g, len(batch))
}

func refMLPForward(m MLP, h, z, params []float64, x []float64) {
	w1, b1, w2, b2 := m.slices(params)
	for i := 0; i < m.Hidden; i++ {
		h[i] = math.Tanh(refDot(w1[i*m.Features:(i+1)*m.Features], x) + b1[i])
	}
	for k := 0; k < m.Classes; k++ {
		z[k] = refDot(w2[k*m.Hidden:(k+1)*m.Hidden], h) + b2[k]
	}
}

func refMLPLoss(m MLP, params []float64, batch []dataset.Sample) float64 {
	h, z := make([]float64, m.Hidden), make([]float64, m.Classes)
	sum := 0.0
	for _, s := range batch {
		refMLPForward(m, h, z, params, s.X)
		sum += logSumExp(z) - z[int(s.Y)]
	}
	return sum / float64(len(batch))
}

func refMLPGradInto(m MLP, g, params []float64, batch []dataset.Sample) {
	linalg.ZeroVec(g)
	w1Len := m.Hidden * m.Features
	gW1 := g[0:w1Len]
	gB1 := g[w1Len : w1Len+m.Hidden]
	gW2 := g[w1Len+m.Hidden : w1Len+m.Hidden+m.Classes*m.Hidden]
	gB2 := g[w1Len+m.Hidden+m.Classes*m.Hidden:]
	_, _, w2, _ := m.slices(params)
	h, z := make([]float64, m.Hidden), make([]float64, m.Classes)
	for _, s := range batch {
		refMLPForward(m, h, z, params, s.X)
		softmaxInPlace(z)
		dz := z
		y := int(s.Y)
		// Output layer.
		for k := 0; k < m.Classes; k++ {
			if k == y {
				dz[k] -= 1
			}
			row := gW2[k*m.Hidden : (k+1)*m.Hidden]
			for i, hi := range h {
				row[i] += dz[k] * hi
			}
			gB2[k] += dz[k]
		}
		// Hidden layer: dh = W2ᵀ dz, through tanh'.
		for i := 0; i < m.Hidden; i++ {
			dh := 0.0
			for k := 0; k < m.Classes; k++ {
				dh += w2[k*m.Hidden+i] * dz[k]
			}
			da := dh * (1 - h[i]*h[i])
			row := gW1[i*m.Features : (i+1)*m.Features]
			for j, x := range s.X {
				row[j] += da * x
			}
			gB1[i] += da
		}
	}
	refScale(g, len(batch))
}

// refLoss and refGradInto dispatch to the reference kernel of a concrete
// model.
func refLoss(m Model, params []float64, batch []dataset.Sample) float64 {
	switch m := m.(type) {
	case LinearRegression:
		return refLinearLoss(m, params, batch)
	case LogisticRegression:
		return refLogisticLoss(m, params, batch)
	case SoftmaxRegression:
		return refSoftmaxLoss(m, params, batch)
	case MLP:
		return refMLPLoss(m, params, batch)
	}
	panic("model: no reference kernel")
}

func refGradInto(m Model, g, params []float64, batch []dataset.Sample) {
	switch m := m.(type) {
	case LinearRegression:
		refLinearGradInto(m, g, params, batch)
	case LogisticRegression:
		refLogisticGradInto(m, g, params, batch)
	case SoftmaxRegression:
		refSoftmaxGradInto(m, g, params, batch)
	case MLP:
		refMLPGradInto(m, g, params, batch)
	default:
		panic("model: no reference kernel")
	}
}
