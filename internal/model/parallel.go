package model

import (
	"runtime"
	"sync"

	"isgc/internal/dataset"
	"isgc/internal/linalg"
)

// ParallelGrad is a long-lived worker pool for sharded gradient and loss
// kernels. A pool is created once (per engine run, per cluster worker) and
// reused every step, so the steady state spawns no goroutines and — with
// the package scratch pool supplying per-shard accumulators — allocates
// nothing.
//
// Sharding splits a batch into contiguous ranges, computes each range's
// gradient into its own scratch vector, and merges the shards in shard
// order with per-shard weights. For a fixed shard count the result is
// fully deterministic (the merge order never depends on goroutine
// scheduling), but it is not bit-identical to the sequential kernel:
// floating-point summation is reassociated across shard boundaries.
// Callers that require bit-identity with the sequential path (the engine
// simulator, replicated partitions in cluster workers) must parallelize
// at a coarser grain — one task per partition via Run — and keep each
// partition's kernel sequential.
//
// A nil *ParallelGrad is valid and means "sequential": Run executes the
// tasks inline and GradInto/Loss delegate to the plain kernels.
type ParallelGrad struct {
	par  int
	jobs chan func()
	wg   sync.WaitGroup
	once sync.Once
}

// NewParallelGrad creates a pool with par long-lived workers. par <= 0
// selects GOMAXPROCS. As a special case par == 1 returns nil — the
// sequential pool — so callers can treat "one shard" and "no pool"
// uniformly.
func NewParallelGrad(par int) *ParallelGrad {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par == 1 {
		return nil
	}
	p := &ParallelGrad{par: par, jobs: make(chan func())}
	for i := 0; i < par; i++ {
		go func() {
			for fn := range p.jobs {
				fn()
			}
		}()
	}
	return p
}

// Par reports the pool's parallelism (1 for the nil/sequential pool).
func (p *ParallelGrad) Par() int {
	if p == nil {
		return 1
	}
	return p.par
}

// Close tears the worker goroutines down. The pool must not be used after
// Close; Close is idempotent.
func (p *ParallelGrad) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.jobs) })
}

// Run executes the tasks concurrently on the pool and returns when all
// have finished. Tasks that find no idle worker run inline on the calling
// goroutine, which makes Run deadlock-free under nesting (a task may
// itself call Run) and keeps the caller productive instead of blocked.
// On the nil pool the tasks simply run sequentially.
func (p *ParallelGrad) Run(fns ...func()) {
	if p == nil || len(fns) == 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	var wg sync.WaitGroup
	for _, fn := range fns {
		fn := fn
		wg.Add(1)
		wrapped := func() {
			defer wg.Done()
			fn()
		}
		select {
		case p.jobs <- wrapped:
		default:
			wrapped()
		}
	}
	wg.Wait()
}

// shardRanges splits n items into at most p contiguous ranges of
// near-equal size, returning the boundary offsets (len = shards+1).
func shardRanges(n, p int) []int {
	if p > n {
		p = n
	}
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = i * n / p
	}
	return bounds
}

// GradInto computes the mean gradient of the batch into dst by sharding
// the batch across the pool: shard i computes the mean gradient of its
// range into pooled scratch (uncleared: Model.GradInto overwrites), and the
// shards are merged in shard order as dst = Σ_i (len_i/len) · g_i.
// Deterministic for a fixed pool size; see the type comment for the
// bit-identity caveat. The nil pool delegates to m.GradInto unchanged.
func (p *ParallelGrad) GradInto(dst, params []float64, m Model, batch []dataset.Sample) {
	if p == nil || len(batch) < 2 {
		m.GradInto(dst, params, batch)
		return
	}
	bounds := shardRanges(len(batch), p.par)
	shards := len(bounds) - 1
	if shards == 1 {
		m.GradInto(dst, params, batch)
		return
	}
	scratch := make([]*[]float64, shards)
	fns := make([]func(), shards)
	for i := 0; i < shards; i++ {
		i := i
		scratch[i] = getVec(len(dst))
		fns[i] = func() {
			m.GradInto(*scratch[i], params, batch[bounds[i]:bounds[i+1]])
		}
	}
	p.Run(fns...)
	inv := 1 / float64(len(batch))
	for i := 0; i < shards; i++ {
		w := float64(bounds[i+1]-bounds[i]) * inv
		if i == 0 {
			linalg.ScaleInto(dst, w, *scratch[i])
		} else {
			linalg.AXPY(dst, w, *scratch[i])
		}
		putVec(scratch[i])
	}
}

// Loss computes the mean loss of the batch by sharding it across the
// pool and combining the per-shard means with per-shard weights, in
// shard order. Same determinism contract as GradInto.
func (p *ParallelGrad) Loss(params []float64, m Model, batch []dataset.Sample) float64 {
	if p == nil || len(batch) < 2 {
		return m.Loss(params, batch)
	}
	bounds := shardRanges(len(batch), p.par)
	shards := len(bounds) - 1
	if shards == 1 {
		return m.Loss(params, batch)
	}
	partial := make([]float64, shards)
	fns := make([]func(), shards)
	for i := 0; i < shards; i++ {
		i := i
		fns[i] = func() {
			partial[i] = m.Loss(params, batch[bounds[i]:bounds[i+1]])
		}
	}
	p.Run(fns...)
	sum := 0.0
	inv := 1 / float64(len(batch))
	for i, l := range partial {
		sum += l * float64(bounds[i+1]-bounds[i]) * inv
	}
	return sum
}
