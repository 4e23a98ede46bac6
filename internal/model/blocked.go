package model

import (
	"isgc/internal/dataset"
	"isgc/internal/linalg"
	"isgc/internal/par"
)

// SampleBlock is the number of samples whose mean loss or gradient forms one
// partial of a Blocked evaluation. It is part of the result's definition:
// the bits depend on it and on nothing that varies with the host
// (GOMAXPROCS, helpers running). A multiple of groupSize, so the kernels'
// eight-sample groups never straddle a block boundary, and at least as
// large as the test datasets, so their losses stay one block.
const SampleBlock = 256

// Blocked evaluates a model's mean loss or gradient over a batch in fixed
// blocks of SampleBlock samples, on the calling goroutine and the shared
// compute helpers (package par). Block b's partial is the plain kernel's
// mean over samples [b·SampleBlock, (b+1)·SampleBlock), and the result is
// Σ_b (len_b/len)·partial_b added in block order, so its bits never depend
// on the core count. A batch of at most SampleBlock samples is one block:
// the plain kernel, bit for bit.
//
// The zero value is ready to use. A Blocked runs one call at a time and
// keeps its gradient scratch between calls, so a warm one allocates
// nothing.
type Blocked struct {
	// Set by the call before the job runs; read-only while it runs.
	m      Model
	params []float64
	batch  []dataset.Sample
	dst    []float64 // GradInto: block 0's gradient; nil for Loss
	grads  []float64 // GradInto: block b ≥ 1's gradient at [(b−1)·dim, b·dim)
	losses []float64 // Loss: block b's mean loss

	fork par.Fork
}

// blocks returns the number of SampleBlock blocks that cover n samples.
func blocks(n int) int { return (n + SampleBlock - 1) / SampleBlock }

// Loss returns the mean loss of m over the batch.
func (e *Blocked) Loss(m Model, params []float64, batch []dataset.Sample) float64 {
	nb := blocks(len(batch))
	if nb <= 1 {
		return m.Loss(params, batch)
	}
	if len(e.losses) < nb {
		e.losses = make([]float64, nb)
	}
	e.m, e.params, e.batch = m, params, batch
	e.fork.Run(e, nb)
	sum := 0.0
	inv := 1 / float64(len(batch))
	for b, l := range e.losses[:nb] {
		sum += l * float64(e.blockLen(b)) * inv
	}
	e.m, e.params, e.batch = nil, nil, nil
	return sum
}

// GradInto computes the mean gradient of m over the batch into dst. Like
// Model.GradInto it overwrites dst and never reads it.
func (e *Blocked) GradInto(dst, params []float64, m Model, batch []dataset.Sample) {
	nb := blocks(len(batch))
	if nb <= 1 {
		m.GradInto(dst, params, batch)
		return
	}
	dim := len(dst)
	if need := (nb - 1) * dim; len(e.grads) < need {
		e.grads = make([]float64, need)
	}
	e.m, e.params, e.batch, e.dst = m, params, batch, dst
	e.fork.Run(e, nb)
	inv := 1 / float64(len(batch))
	linalg.Scale(dst, float64(SampleBlock)*inv)
	for b := 1; b < nb; b++ {
		linalg.AXPY(dst, float64(e.blockLen(b))*inv, e.grads[(b-1)*dim:b*dim])
	}
	e.m, e.params, e.batch, e.dst = nil, nil, nil, nil
}

// blockLen returns the number of samples in block b of the call's batch.
func (e *Blocked) blockLen(b int) int {
	return min((b+1)*SampleBlock, len(e.batch)) - b*SampleBlock
}

// Block computes block b's partial: its mean loss, or its mean gradient
// into dst (block 0) or its scratch slot.
func (e *Blocked) Block(b int) {
	part := e.batch[b*SampleBlock : b*SampleBlock+e.blockLen(b)]
	switch dim := len(e.dst); {
	case e.dst == nil:
		e.losses[b] = e.m.Loss(e.params, part)
	case b == 0:
		e.m.GradInto(e.dst, e.params, part)
	default:
		e.m.GradInto(e.grads[(b-1)*dim:b*dim], e.params, part)
	}
}
