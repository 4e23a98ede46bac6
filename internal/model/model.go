// Package model provides the differentiable models used as training
// workloads: linear regression, logistic regression, softmax regression,
// and a one-hidden-layer MLP (the repo's stand-in for the paper's
// ResNet-18 — see DESIGN.md for the substitution rationale). Each model
// exposes a flat parameter vector and computes loss and gradient on a batch
// of samples, which is exactly the interface the distributed engine and
// the IS-GC encoders need: gradients are plain []float64 vectors that can
// be encoded by summation.
package model

import (
	"fmt"
	"math"
	"math/rand"

	"isgc/internal/dataset"
	"isgc/internal/linalg"
)

// Model is a supervised model with a flat parameter vector.
//
// Grad computes the *mean* gradient of the loss over the batch with respect
// to the parameters, evaluated at params; Loss computes the mean loss.
// Implementations must not retain or mutate the inputs.
type Model interface {
	// Dim returns the length of the flat parameter vector.
	Dim() int
	// InitParams returns a fresh initial parameter vector drawn with the
	// given seed (the paper uses identical seeds across schemes so every
	// scheme starts from the same parameters).
	InitParams(seed int64) []float64
	// Loss returns the mean loss of params on the batch.
	Loss(params []float64, batch []dataset.Sample) float64
	// Grad returns the mean gradient of the loss on the batch. The result
	// is freshly allocated; hot paths should prefer GradInto.
	Grad(params []float64, batch []dataset.Sample) []float64
	// GradInto computes the mean gradient of the loss on the batch into
	// dst, which must have length Dim(); dst is overwritten and its
	// previous contents are never read, so callers hand in recycled
	// buffers without clearing them. The result is bit-identical to Grad
	// and to the one-sample-at-a-time reference (oracle_test.go): blocked
	// kernels keep every sum's order, signed zeros included.
	// Implementations draw any internal scratch from the package buffer
	// pool, so the steady-state path allocates nothing. The batch must fit
	// the model (CheckData).
	GradInto(dst, params []float64, batch []dataset.Sample)
	// String names the model for logs.
	String() string
}

// Classifier is implemented by models whose targets are class indices;
// Predict returns the argmax class for one input. The engine records
// training accuracy for Classifier models.
type Classifier interface {
	Model
	// Predict returns the predicted class index for x under params.
	Predict(params []float64, x []float64) int
}

// batchClassifier is a Classifier that labels a whole batch through its
// grouped forward pass — eight samples per pass over the weights — instead
// of one Predict per sample.
type batchClassifier interface {
	// correct counts the samples whose argmax logit is their label; it
	// agrees with Predict on every sample.
	correct(params []float64, batch []dataset.Sample) int
}

// Accuracy returns the fraction of batch samples the classifier labels
// correctly (0 for an empty batch).
func Accuracy(c Classifier, params []float64, batch []dataset.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	correct := 0
	if bc, ok := c.(batchClassifier); ok {
		correct = bc.correct(params, batch)
	} else {
		for _, s := range batch {
			if c.Predict(params, s.X) == int(s.Y) {
				correct++
			}
		}
	}
	return float64(correct) / float64(len(batch))
}

// LinearRegression is least-squares regression: loss = ½·mean (⟨θ, x⟩ − y)².
type LinearRegression struct {
	// Features is the input dimension p; Dim() == p.
	Features int
}

// Dim implements Model.
func (m LinearRegression) Dim() int { return m.Features }

// InitParams implements Model.
func (m LinearRegression) InitParams(seed int64) []float64 {
	return gaussianInit(m.Dim(), 0.01, seed)
}

// Loss implements Model.
func (m LinearRegression) Loss(params []float64, batch []dataset.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range batch {
		r := linalg.Dot(params, s.X) - s.Y
		sum += 0.5 * r * r
	}
	return sum / float64(len(batch))
}

// Grad implements Model.
func (m LinearRegression) Grad(params []float64, batch []dataset.Sample) []float64 {
	g := make([]float64, m.Dim())
	m.GradInto(g, params, batch)
	return g
}

// GradInto implements Model.
func (m LinearRegression) GradInto(g, params []float64, batch []dataset.Sample) {
	checkGradDim(len(g), m.Dim())
	linalg.ZeroVec(g)
	if len(batch) == 0 {
		return
	}
	for _, s := range batch {
		linalg.AXPY(g, linalg.Dot(params, s.X)-s.Y, s.X)
	}
	linalg.Scale(g, 1/float64(len(batch)))
}

// String implements Model.
func (m LinearRegression) String() string { return fmt.Sprintf("linreg(p=%d)", m.Features) }

// LogisticRegression is binary classification with the logistic loss;
// labels must be 0 or 1.
type LogisticRegression struct {
	Features int
}

// Dim implements Model.
func (m LogisticRegression) Dim() int { return m.Features }

// InitParams implements Model.
func (m LogisticRegression) InitParams(seed int64) []float64 {
	return gaussianInit(m.Dim(), 0.01, seed)
}

// Loss implements Model.
func (m LogisticRegression) Loss(params []float64, batch []dataset.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range batch {
		z := linalg.Dot(params, s.X)
		// Numerically stable log(1 + e^{-yz}) with y ∈ {±1}.
		yz := z
		if s.Y < 0.5 {
			yz = -z
		}
		sum += math.Log1p(math.Exp(-abs(yz))) + max0(-yz)
	}
	return sum / float64(len(batch))
}

// Grad implements Model.
func (m LogisticRegression) Grad(params []float64, batch []dataset.Sample) []float64 {
	g := make([]float64, m.Dim())
	m.GradInto(g, params, batch)
	return g
}

// GradInto implements Model.
func (m LogisticRegression) GradInto(g, params []float64, batch []dataset.Sample) {
	checkGradDim(len(g), m.Dim())
	linalg.ZeroVec(g)
	if len(batch) == 0 {
		return
	}
	for _, s := range batch {
		linalg.AXPY(g, sigmoid(linalg.Dot(params, s.X))-s.Y, s.X)
	}
	linalg.Scale(g, 1/float64(len(batch)))
}

// Predict implements Classifier: class 1 iff the logit is non-negative.
func (m LogisticRegression) Predict(params []float64, x []float64) int {
	if linalg.Dot(params, x) >= 0 {
		return 1
	}
	return 0
}

// String implements Model.
func (m LogisticRegression) String() string { return fmt.Sprintf("logreg(p=%d)", m.Features) }

// SoftmaxRegression is multinomial logistic regression over Classes
// classes with cross-entropy loss. Parameters are a row-major
// Classes×Features weight matrix. Y is the class index.
type SoftmaxRegression struct {
	Features int
	Classes  int
}

// Dim implements Model.
func (m SoftmaxRegression) Dim() int { return m.Features * m.Classes }

// InitParams implements Model.
func (m SoftmaxRegression) InitParams(seed int64) []float64 {
	return gaussianInit(m.Dim(), 0.01, seed)
}

// logits8 fills the first len(b) K-word blocks of z with the logits of the
// 2–8 samples of b, from one pass over the weights: the inputs are
// interleaved into xT (length 8·Features, spare lanes padded), linalg.MatVecT8
// leaves the logits interleaved in zT (length 8·Classes), and only the lanes
// of b are de-interleaved.
func (m SoftmaxRegression) logits8(xT, zT, z, params []float64, b []dataset.Sample) {
	var xs [groupSize][]float64
	linalg.Interleave8(xT, inputs(&xs, b))
	linalg.MatVecT8(zT, params, m.Features, m.Classes, xT)
	linalg.Deinterleave8(z[:len(b)*m.Classes], zT)
}

// groupScratch borrows the scratch of a grouped pass in one pooled vector:
// the interleaved inputs xT and logits zT, and z, whose eight K-word blocks
// hold one sample's logits each.
func (m SoftmaxRegression) groupScratch() (sp *[]float64, xT, zT, z []float64) {
	F, K := m.Features, m.Classes
	sp = getVec(groupSize * (F + 2*K))
	v := *sp
	return sp, v[:groupSize*F], v[groupSize*F : groupSize*(F+K)], v[groupSize*(F+K):]
}

// eachLogits calls visit with every sample of the batch, in batch order, and
// its logits (valid during the call): each group of 2–8 through logits8, a
// lone last sample through the one-sample mat-vec.
func (m SoftmaxRegression) eachLogits(params []float64, batch []dataset.Sample, visit func(s dataset.Sample, z []float64)) {
	K := m.Classes
	sp, xT, zT, z := m.groupScratch()
	defer putVec(sp)
	for b := batch; len(b) > 0; {
		var group []dataset.Sample
		group, b = nextGroup(b)
		if len(group) == 1 {
			linalg.MatVecInto(z[:K], params, m.Features, group[0].X)
		} else {
			m.logits8(xT, zT, z, params, group)
		}
		for i, s := range group {
			visit(s, z[i*K:(i+1)*K])
		}
	}
}

// Loss implements Model.
func (m SoftmaxRegression) Loss(params []float64, batch []dataset.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	sum := 0.0
	m.eachLogits(params, batch, func(s dataset.Sample, z []float64) {
		sum += logSumExp(z) - z[int(s.Y)]
	})
	return sum / float64(len(batch))
}

// correct implements batchClassifier.
func (m SoftmaxRegression) correct(params []float64, batch []dataset.Sample) int {
	n := 0
	m.eachLogits(params, batch, func(s dataset.Sample, z []float64) {
		if argmax(z) == int(s.Y) {
			n++
		}
	})
	return n
}

// Grad implements Model.
func (m SoftmaxRegression) Grad(params []float64, batch []dataset.Sample) []float64 {
	g := make([]float64, m.Dim())
	m.GradInto(g, params, batch)
	return g
}

// GradInto implements Model. Samples are taken in groups of up to eight:
// one grouped forward pass (logits8, or the one-sample mat-vec for a lone
// last sample), then each gradient row folds in the group's samples in
// order (foldRows: AXPY4 per four, AXPY per rest), so every element
// accumulates its samples in batch order. There is no zero fill: the first
// group writes every row as 0 + its terms (linalg.AXPY4Zero / AXPYZero) — at
// Features×Classes = 2^17 the fill and the re-read of the row it zeroed were
// a third of a one-sample gradient.
func (m SoftmaxRegression) GradInto(g, params []float64, batch []dataset.Sample) {
	checkGradDim(len(g), m.Dim())
	if len(batch) == 0 {
		linalg.ZeroVec(g)
		return
	}
	F, K := m.Features, m.Classes
	sp, xT, zT, z := m.groupScratch()
	defer putVec(sp)
	first := true // no row of g has been written yet
	for b := batch; len(b) > 0; {
		var group []dataset.Sample
		group, b = nextGroup(b)
		if len(group) == 1 {
			linalg.MatVecInto(z[:K], params, F, group[0].X)
		} else {
			m.logits8(xT, zT, z, params, group)
		}
		for i, s := range group {
			dzInPlace(z[i*K:(i+1)*K], s.Y)
		}
		var xs [groupSize][]float64
		x := inputs(&xs, group)
		foldRows(g, K, F, x, z, K, first)
		first = false
	}
	linalg.Scale(g, 1/float64(len(batch)))
}

// Predict implements Classifier: the argmax logit.
func (m SoftmaxRegression) Predict(params []float64, x []float64) int {
	zp := getVec(m.Classes)
	z := *zp
	defer putVec(zp)
	linalg.MatVecInto(z, params, m.Features, x)
	return argmax(z)
}

// String implements Model.
func (m SoftmaxRegression) String() string {
	return fmt.Sprintf("softmax(p=%d,k=%d)", m.Features, m.Classes)
}

// MLP is a one-hidden-layer network with tanh activation and softmax
// output — the deepest workload here, standing in for ResNet-18. The
// parameter layout is [W1 (Hidden×Features) | b1 (Hidden) |
// W2 (Classes×Hidden) | b2 (Classes)].
type MLP struct {
	Features int
	Hidden   int
	Classes  int
}

// Dim implements Model.
func (m MLP) Dim() int {
	return m.Hidden*m.Features + m.Hidden + m.Classes*m.Hidden + m.Classes
}

// InitParams implements Model.
func (m MLP) InitParams(seed int64) []float64 {
	// Xavier-style scaling per layer.
	rng := rand.New(rand.NewSource(seed))
	p := make([]float64, m.Dim())
	s1 := math.Sqrt(2 / float64(m.Features+m.Hidden))
	s2 := math.Sqrt(2 / float64(m.Hidden+m.Classes))
	o := 0
	for i := 0; i < m.Hidden*m.Features; i++ {
		p[o] = s1 * rng.NormFloat64()
		o++
	}
	o += m.Hidden // b1 zero
	for i := 0; i < m.Classes*m.Hidden; i++ {
		p[o] = s2 * rng.NormFloat64()
		o++
	}
	return p
}

func (m MLP) slices(params []float64) (w1, b1, w2, b2 []float64) {
	o := 0
	w1 = params[o : o+m.Hidden*m.Features]
	o += m.Hidden * m.Features
	b1 = params[o : o+m.Hidden]
	o += m.Hidden
	w2 = params[o : o+m.Classes*m.Hidden]
	o += m.Classes * m.Hidden
	b2 = params[o : o+m.Classes]
	return w1, b1, w2, b2
}

// forwardInto fills h (length Hidden) and z (length Classes) with the
// hidden activations and output logits of x: two row-blocked mat-vecs,
// bias and tanh applied in a second pass over each.
func (m MLP) forwardInto(h, z, params []float64, x []float64) {
	w1, b1, w2, b2 := m.slices(params)
	linalg.MatVecInto(h, w1, m.Features, x)
	for i, b := range b1 {
		h[i] = math.Tanh(h[i] + b)
	}
	linalg.MatVecInto(z, w2, m.Hidden, h)
	for k, b := range b2 {
		z[k] += b
	}
}

// mlpScratch is the scratch of a grouped pass, carved from one pooled
// vector: the interleaved inputs xT (8·Features), hidden activations hT
// (8·Hidden) and logits zT (8·Classes), and the per-sample views the
// one-sample code reads — z, whose eight K-word blocks hold one sample's
// logits each, h, the same for the hidden activations, and dh, the same for
// the backward pass's hidden gradients. h shares its words with xT and dh
// with hT: layer 1 has read xT before GradInto de-interleaves h, and h has
// left hT before hiddenGrad writes dh.
type mlpScratch struct {
	pooled     *[]float64
	xT, hT, zT []float64
	z, h, dh   []float64
}

func (m MLP) groupScratch() mlpScratch {
	F, H, K := m.Features, m.Hidden, m.Classes
	xh := groupSize * max(F, H)
	sc := mlpScratch{pooled: getVec(xh + groupSize*(H+2*K))}
	v := *sc.pooled
	sc.xT, sc.h, v = v[:groupSize*F], v[:groupSize*H], v[xh:]
	sc.hT, sc.dh, v = v[:groupSize*H], v[:groupSize*H], v[groupSize*H:]
	sc.zT, sc.z = v[:groupSize*K], v[groupSize*K:]
	return sc
}

// forward8 runs the forward pass of the 2–8 samples of b as one: the inputs
// are interleaved once (spare lanes padded), layer 1's output stays
// interleaved through bias and tanh (linalg.TanhBias8, math.Tanh in every
// bit) into layer 2 (linalg.MatVecT8 both times), and only the logits of b's
// lanes are de-interleaved, into the K-word blocks of sc.z. The hidden
// activations stay interleaved in sc.hT; the backward pass de-interleaves
// them itself.
func (m MLP) forward8(sc mlpScratch, params []float64, b []dataset.Sample) {
	w1, b1, w2, b2 := m.slices(params)
	K := m.Classes
	var xs [groupSize][]float64
	linalg.Interleave8(sc.xT, inputs(&xs, b))
	linalg.MatVecT8(sc.hT, w1, m.Features, m.Hidden, sc.xT)
	linalg.TanhBias8(sc.hT, b1)
	linalg.MatVecT8(sc.zT, w2, m.Hidden, K, sc.hT)
	z := sc.z[:len(b)*K]
	linalg.Deinterleave8(z, sc.zT)
	for i := range b {
		zi := z[i*K : (i+1)*K]
		for k, bk := range b2 {
			zi[k] += bk
		}
	}
}

// eachLogits calls visit with every sample of the batch, in batch order, and
// its logits (valid during the call): each group of 2–8 through forward8, a
// lone last sample through the one-sample forward pass.
func (m MLP) eachLogits(params []float64, batch []dataset.Sample, visit func(s dataset.Sample, z []float64)) {
	H, K := m.Hidden, m.Classes
	sc := m.groupScratch()
	defer putVec(sc.pooled)
	for b := batch; len(b) > 0; {
		var group []dataset.Sample
		group, b = nextGroup(b)
		if len(group) == 1 {
			m.forwardInto(sc.h[:H], sc.z[:K], params, group[0].X)
		} else {
			m.forward8(sc, params, group)
		}
		for i, s := range group {
			visit(s, sc.z[i*K:(i+1)*K])
		}
	}
}

// Loss implements Model.
func (m MLP) Loss(params []float64, batch []dataset.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	sum := 0.0
	m.eachLogits(params, batch, func(s dataset.Sample, z []float64) {
		sum += logSumExp(z) - z[int(s.Y)]
	})
	return sum / float64(len(batch))
}

// correct implements batchClassifier.
func (m MLP) correct(params []float64, batch []dataset.Sample) int {
	n := 0
	m.eachLogits(params, batch, func(s dataset.Sample, z []float64) {
		if argmax(z) == int(s.Y) {
			n++
		}
	})
	return n
}

// Grad implements Model.
func (m MLP) Grad(params []float64, batch []dataset.Sample) []float64 {
	g := make([]float64, m.Dim())
	m.GradInto(g, params, batch)
	return g
}

// GradInto implements Model. Samples are taken in groups of up to eight: one
// grouped forward pass (forward8, or the one-sample forward pass for a lone
// last sample) and dz for each into pooled scratch, then every gradient row
// folds in the group's samples in order (foldRows: AXPY4 per four, AXPY per
// rest) and each sample's dh is a sum of whole W2 rows (hiddenGrad). The
// bias gradients add the group's dz and dh vectors whole, in sample order
// (addBlocks); every element accumulates its samples in batch order.
func (m MLP) GradInto(g, params []float64, batch []dataset.Sample) {
	checkGradDim(len(g), m.Dim())
	linalg.ZeroVec(g)
	if len(batch) == 0 {
		return
	}
	F, H, K := m.Features, m.Hidden, m.Classes
	gW1, gB1, gW2, gB2 := m.slices(g)
	_, _, w2, _ := m.slices(params)
	sc := m.groupScratch()
	defer putVec(sc.pooled)
	for b := batch; len(b) > 0; {
		var group []dataset.Sample
		group, b = nextGroup(b)
		n := len(group)
		if n == 1 {
			m.forwardInto(sc.h[:H], sc.z[:K], params, group[0].X)
		} else {
			m.forward8(sc, params, group)
			linalg.Deinterleave8(sc.h[:n*H], sc.hT)
		}
		var hs, xs [groupSize][]float64
		for i, s := range group {
			dzInPlace(sc.z[i*K:(i+1)*K], s.Y)
			hs[i] = sc.h[i*H : (i+1)*H]
			xs[i] = s.X
		}
		// Output layer.
		foldRows(gW2, K, H, hs[:n], sc.z, K, false)
		addBlocks(gB2, sc.z[:n*K])
		// Hidden layer.
		for i := range group {
			m.hiddenGrad(sc.dh[i*H:(i+1)*H], w2, sc.z[i*K:(i+1)*K], hs[i])
		}
		foldRows(gW1, H, F, xs[:n], sc.dh, H, false)
		addBlocks(gB1, sc.dh[:n*H])
	}
	linalg.Scale(g, 1/float64(len(batch)))
}

// hiddenGrad writes one sample's gradient at the hidden pre-activations,
// dh = W2ᵀ dz through tanh′: dh[i] = (Σ_k dz[k]·W2[k,i])·(1 − h[i]·h[i]).
// The sum runs over whole rows of W2 — AXPY4Zero over the first four
// classes, AXPY4 over each further four, AXPY for the rest — so every
// element is still its own chain from +0 over k in class order, one rounding
// per multiply and one per add: the bits of the scalar loop that reads W2
// down a column, without its stride.
func (m MLP) hiddenGrad(dh, w2, dz, h []float64) {
	H, K := m.Hidden, m.Classes
	row := func(k int) []float64 { return w2[k*H : (k+1)*H] }
	k := 1
	if K >= 4 {
		linalg.AXPY4Zero(dh, dz[0], row(0), dz[1], row(1), dz[2], row(2), dz[3], row(3))
		k = 4
	} else {
		linalg.AXPYZero(dh, dz[0], row(0))
	}
	for ; k+4 <= K; k += 4 {
		linalg.AXPY4(dh, dz[k], row(k), dz[k+1], row(k+1), dz[k+2], row(k+2), dz[k+3], row(k+3))
	}
	for ; k < K; k++ {
		linalg.AXPY(dh, dz[k], row(k))
	}
	for i, hi := range h {
		dh[i] *= 1 - hi*hi
	}
}

// Predict implements Classifier: the argmax output logit.
func (m MLP) Predict(params []float64, x []float64) int {
	hp, zp := getVec(m.Hidden), getVec(m.Classes)
	h, z := *hp, *zp
	defer putVec(hp)
	defer putVec(zp)
	m.forwardInto(h, z, params, x)
	return argmax(z)
}

// String implements Model.
func (m MLP) String() string {
	return fmt.Sprintf("mlp(p=%d,h=%d,k=%d)", m.Features, m.Hidden, m.Classes)
}

// Helpers ----------------------------------------------------------------

// groupSize is the number of samples a grouped pass takes: the lanes of
// linalg.MatVecT8.
const groupSize = 8

// nextGroup splits the next group off a batch: eight samples, or all that
// are left when fewer remain. Only a batch's last group is short, and a
// short group of 2–7 still runs the grouped pass with its spare lanes
// padded; a group of one takes the one-sample path.
func nextGroup(b []dataset.Sample) (group, rest []dataset.Sample) {
	n := min(groupSize, len(b))
	return b[:n], b[n:]
}

// inputs lists the feature vectors of a group's samples in xs.
func inputs(xs *[groupSize][]float64, group []dataset.Sample) [][]float64 {
	for i, s := range group {
		xs[i] = s.X
	}
	return xs[:len(group)]
}

// foldRows adds c[r + s·stride]·x[s] into row r of the rows × width
// row-major matrix g, for every row and the samples s of a group, in
// sample order: linalg.AXPY4 over each whole four, AXPY over the rest, so
// every element is the chain one AXPY per sample would give. Sample s's
// factors are the block c[s·stride:] of a per-sample scratch vector, read in
// place. With first set each row's first term is written rather than added
// (AXPY4Zero, AXPYZero), and g is never read.
func foldRows(g []float64, rows, width int, x [][]float64, c []float64, stride int, first bool) {
	for r := 0; r < rows; r++ {
		row, c := g[r*width:(r+1)*width], c[r:]
		s := 0
		if first {
			if len(x) >= 4 {
				linalg.AXPY4Zero(row, c[0], x[0], c[stride], x[1], c[2*stride], x[2], c[3*stride], x[3])
				s = 4
			} else {
				linalg.AXPYZero(row, c[0], x[0])
				s = 1
			}
		}
		for ; s+4 <= len(x); s += 4 {
			linalg.AXPY4(row, c[s*stride], x[s], c[(s+1)*stride], x[s+1], c[(s+2)*stride], x[s+2], c[(s+3)*stride], x[s+3])
		}
		for ; s < len(x); s++ {
			linalg.AXPY(row, c[s*stride], x[s])
		}
	}
}

// addBlocks adds the consecutive len(dst)-word blocks of v into dst in
// order: linalg.AddTo4 per four, AddTo per rest — every element the chain
// one AddTo per block would give.
func addBlocks(dst, v []float64) {
	n := len(dst)
	for ; len(v) >= 4*n; v = v[4*n:] {
		linalg.AddTo4(dst, v[:n], v[n:2*n], v[2*n:3*n], v[3*n:4*n])
	}
	for ; len(v) > 0; v = v[n:] {
		linalg.AddTo(dst, v[:n])
	}
}

func gaussianInit(n int, scale float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	p := make([]float64, n)
	for i := range p {
		p[i] = scale * rng.NormFloat64()
	}
	return p
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

func logSumExp(z []float64) float64 {
	m := z[0]
	for _, v := range z[1:] {
		if v > m {
			m = v
		}
	}
	s := 0.0
	for _, v := range z {
		s += math.Exp(v - m)
	}
	return m + math.Log(s)
}

// dzInPlace turns the logits z of a sample with label y into the loss
// gradient at the logits: softmax(z) minus the one-hot target.
func dzInPlace(z []float64, y float64) {
	softmaxInPlace(z)
	z[int(y)] -= 1
}

// softmaxInPlace overwrites the logits z with their softmax
// probabilities, using the same max-shifted arithmetic as the old
// allocating softmax so results are bit-identical.
func softmaxInPlace(z []float64) {
	m := z[0]
	for _, v := range z[1:] {
		if v > m {
			m = v
		}
	}
	s := 0.0
	for i, v := range z {
		z[i] = math.Exp(v - m)
		s += z[i]
	}
	for i := range z {
		z[i] /= s
	}
}

// checkGradDim guards the GradInto contract: dst must already have the
// model's full dimension so implementations can slice it without bounds
// surprises.
func checkGradDim(got, want int) {
	if got != want {
		panic(fmt.Sprintf("model: GradInto dst has length %d, want %d", got, want))
	}
}

func argmax(z []float64) int {
	best := 0
	for i, v := range z[1:] {
		if v > z[best] {
			best = i + 1
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func max0(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}
