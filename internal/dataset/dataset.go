// Package dataset provides synthetic datasets, deterministic partitioning,
// and seeded mini-batch loading for the training experiments.
//
// The paper trains ResNet-18 on CIFAR-10/ImageNet; those assets (and GPUs)
// are out of scope here, so we substitute synthetic tasks with the same
// structural role: a convex regression task and a Gaussian-cluster
// classification task whose loss curves respond to partial gradient
// recovery the same way (unbiased partial sums slow convergence in
// proportion to the fraction recovered). The substitution is documented in
// DESIGN.md.
//
// The paper "carefully control[s] all random seeds so that data in each
// batch are always the same in the same dataset partition" — Loader mirrors
// that: batch composition depends only on (partition, seed, step), never on
// which worker evaluates it.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"
)

// Sample is one labeled example: features X and target Y (a class index
// cast to float64 for classification tasks).
type Sample struct {
	X []float64
	Y float64
}

// Dataset is an immutable list of samples with a fixed feature dimension.
type Dataset struct {
	samples []Sample
	dim     int
}

// New wraps samples into a Dataset, validating dimensional consistency.
func New(samples []Sample) (*Dataset, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("dataset: empty sample list")
	}
	dim := len(samples[0].X)
	if dim == 0 {
		return nil, fmt.Errorf("dataset: zero-dimensional features")
	}
	for i, s := range samples {
		if len(s.X) != dim {
			return nil, fmt.Errorf("dataset: sample %d has dim %d, want %d", i, len(s.X), dim)
		}
	}
	out := make([]Sample, len(samples))
	copy(out, samples)
	return &Dataset{samples: out, dim: dim}, nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.samples) }

// Dim returns the feature dimension.
func (d *Dataset) Dim() int { return d.dim }

// At returns sample i (shared backing arrays; treat as read-only).
func (d *Dataset) At(i int) Sample { return d.samples[i] }

// SyntheticLinear generates m samples of a noisy linear model
// y = ⟨w*, x⟩ + ε with x ~ N(0, I_dim), ε ~ N(0, noise²). It returns the
// dataset and the ground-truth weights, enabling exact-recovery assertions
// in tests.
func SyntheticLinear(m, dim int, noise float64, seed int64) (*Dataset, []float64, error) {
	if m <= 0 || dim <= 0 {
		return nil, nil, fmt.Errorf("dataset: need m, dim > 0, got m=%d dim=%d", m, dim)
	}
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	samples := make([]Sample, m)
	for i := range samples {
		x := make([]float64, dim)
		y := 0.0
		for j := range x {
			x[j] = rng.NormFloat64()
			y += w[j] * x[j]
		}
		y += noise * rng.NormFloat64()
		samples[i] = Sample{X: x, Y: y}
	}
	d, err := New(samples)
	return d, w, err
}

// SyntheticClusters generates m samples from `classes` Gaussian clusters in
// dim dimensions (our CIFAR-10 stand-in for the classification
// experiments): cluster centers are drawn N(0, sep²·I), each sample is its
// center plus N(0, I) noise, and Y is the class index. Class sizes are
// balanced up to rounding.
func SyntheticClusters(m, dim, classes int, sep float64, seed int64) (*Dataset, error) {
	if m <= 0 || dim <= 0 || classes <= 1 {
		return nil, fmt.Errorf("dataset: need m, dim > 0 and classes > 1, got m=%d dim=%d classes=%d", m, dim, classes)
	}
	if m < classes {
		return nil, fmt.Errorf("dataset: need m ≥ classes, got m=%d classes=%d", m, classes)
	}
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, classes)
	for k := range centers {
		centers[k] = make([]float64, dim)
		for j := range centers[k] {
			centers[k][j] = sep * rng.NormFloat64()
		}
	}
	samples := make([]Sample, m)
	for i := range samples {
		k := i % classes
		x := make([]float64, dim)
		for j := range x {
			x[j] = centers[k][j] + rng.NormFloat64()
		}
		samples[i] = Sample{X: x, Y: float64(k)}
	}
	// Shuffle so partitions are class-balanced in expectation.
	rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	return New(samples)
}

// SortByLabel returns a new dataset with samples stably ordered by their
// label Y. Partitioning a label-sorted dataset yields class-skewed
// partitions — the adversarial placement for schemes that can lose whole
// partitions: an ignored partition then means an (almost) ignored class.
// This is how the bias study reproduces the paper's Sec. I observation
// that "if some worker experiences severe or consistently lower
// performance, IS-SGD will still make the training biased toward the
// other dataset partitions".
func (d *Dataset) SortByLabel() *Dataset {
	samples := make([]Sample, len(d.samples))
	copy(samples, d.samples)
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].Y < samples[j].Y })
	return &Dataset{samples: samples, dim: d.dim}
}

// Partition splits the dataset into n equal contiguous partitions
// (D_1, …, D_n in the paper). The dataset length must be divisible by n so
// every partition carries the same gradient weight (the paper's equal-split
// assumption); trailing samples are dropped with an error if not.
func (d *Dataset) Partition(n int) ([]*Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: need n > 0 partitions, got %d", n)
	}
	if d.Len()%n != 0 {
		return nil, fmt.Errorf("dataset: %d samples not divisible into %d equal partitions", d.Len(), n)
	}
	size := d.Len() / n
	parts := make([]*Dataset, n)
	for i := range parts {
		parts[i] = &Dataset{samples: d.samples[i*size : (i+1)*size], dim: d.dim}
	}
	return parts, nil
}

// Loader yields deterministic mini-batches from one partition: the batch at
// step t depends only on (seed, t), so replicas of a partition on different
// workers see identical batches — the property the paper relies on for
// coded gradients from different workers to be summable.
//
// A Loader reuses one generator, one index buffer and one sample buffer
// across calls, so it belongs to a single goroutine and the result of Batch
// or Samples is valid only until the next call to either. Every worker and
// every engine partition task owns its loaders.
type Loader struct {
	part  *Dataset
	batch int
	seed  int64
	rng   *rand.Rand // made by the first batch, re-seeded by every later one
	perm  []int      // Len() indices, shuffled in place per batch
	out   []Sample   // batch samples, refilled per call
}

// NewLoader creates a loader over part with the given batch size.
func NewLoader(part *Dataset, batch int, seed int64) (*Loader, error) {
	if part == nil || part.Len() == 0 {
		return nil, fmt.Errorf("dataset: loader over empty partition")
	}
	if batch <= 0 {
		return nil, fmt.Errorf("dataset: need batch > 0, got %d", batch)
	}
	if batch > part.Len() {
		batch = part.Len()
	}
	return &Loader{part: part, batch: batch, seed: seed,
		perm: make([]int, part.Len()), out: make([]Sample, batch)}, nil
}

// BatchSize returns the effective batch size.
func (l *Loader) BatchSize() int { return l.batch }

// Data returns the partition the loader draws from.
func (l *Loader) Data() *Dataset { return l.part }

// Batch returns the mini-batch for step t as sample indices into the
// partition: the first BatchSize entries of
// rand.New(rand.NewSource(seed')).Perm(Len()) for a seed' mixed from
// (seed, t). The same (seed, t) always yields the same batch.
func (l *Loader) Batch(t int) []int {
	const mix = int64(-0x61c8864680b583eb) // golden-ratio mixing constant
	if s := l.seed ^ (int64(t)+1)*mix; l.rng == nil {
		// Seeding is the expensive part of a source (≈ 10 µs), so the first
		// batch makes it rather than NewLoader seeding one to no purpose.
		l.rng = rand.New(rand.NewSource(s))
	} else {
		l.rng.Seed(s) // the same stream NewSource(s) starts
	}
	// rand.Perm's inside-out shuffle, draw for draw; every entry is written
	// before it is read, so the old contents need no reset.
	m := l.perm
	for i := range m {
		j := l.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m[:l.batch]
}

// Samples resolves the step-t batch to samples.
func (l *Loader) Samples(t int) []Sample {
	for i, j := range l.Batch(t) {
		l.out[i] = l.part.samples[j]
	}
	return l.out
}
