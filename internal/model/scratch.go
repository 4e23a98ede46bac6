package model

import "sync"

// vecPool recycles the per-call scratch vectors (logits, hidden
// activations) so that the steady-state compute path — GradInto, Loss,
// Predict — allocates nothing once the pool is warm. Buffers are shared across models and goroutines; a buffer is
// reused at whatever capacity it was first grown to.
var vecPool = sync.Pool{New: func() any { return new([]float64) }}

// getVec borrows a length-n vector with unspecified contents. Callers that
// accumulate into it must zero it first (linalg.ZeroVec); callers that assign every
// element need not.
func getVec(n int) *[]float64 {
	vp := vecPool.Get().(*[]float64)
	if cap(*vp) < n {
		*vp = make([]float64, n)
	}
	*vp = (*vp)[:n]
	return vp
}

// putVec returns a borrowed vector to the pool.
func putVec(vp *[]float64) { vecPool.Put(vp) }
