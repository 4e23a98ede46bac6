package model

import (
	"runtime"
	"sync"

	"isgc/internal/dataset"
	"isgc/internal/linalg"
)

// ParallelGrad is a long-lived worker pool for sharded gradient and loss
// kernels. A pool is created once (per engine run, per cluster worker) and
// reused every step, so the steady state spawns no goroutines and
// allocates nothing: Run's task slots and the per-call shard state of
// GradInto and Loss (bounds, partial losses, the shard tasks themselves)
// come from free lists the pool keeps, and the package scratch pool
// supplies the per-shard gradient accumulators.
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
	jobs chan *poolTask
	once sync.Once

	runs  freeList[runBatch]
	calls freeList[shardCall]
}

// poolTask is one task of a Run, as a pool worker receives it.
type poolTask struct {
	fn   func()
	done *sync.WaitGroup
}

// runBatch is one Run's tasks and the group it waits on. Nested and
// concurrent Runs each take their own.
type runBatch struct {
	wg    sync.WaitGroup
	tasks []poolTask
}

// freeList recycles the pool's per-call state. Unlike a sync.Pool it keeps
// what it is given across garbage collections, so a warm pool allocates
// nothing at all.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	if last := len(l.free) - 1; last >= 0 {
		x := l.free[last]
		l.free = l.free[:last]
		return x
	}
	return new(T)
}

func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
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
	p := &ParallelGrad{par: par, jobs: make(chan *poolTask)}
	for i := 0; i < par; i++ {
		go func() {
			for t := range p.jobs {
				t.fn()
				t.done.Done()
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
	b := p.runs.get()
	if len(b.tasks) < len(fns) {
		b.tasks = make([]poolTask, len(fns))
	}
	for i, fn := range fns {
		t := &b.tasks[i]
		t.fn, t.done = fn, &b.wg
		b.wg.Add(1)
		select {
		case p.jobs <- t:
		default:
			fn()
			b.wg.Done()
		}
	}
	b.wg.Wait()
	for i := range fns {
		b.tasks[i].fn = nil
	}
	p.runs.put(b)
}

// shardBounds appends to dst the boundary offsets (shards+1 of them) that
// split n items into at most p contiguous ranges of near-equal size.
func shardBounds(dst []int, n, p int) []int {
	if p > n {
		p = n
	}
	for i := 0; i <= p; i++ {
		dst = append(dst, i*n/p)
	}
	return dst
}

// shardCall is the state of one sharded GradInto or Loss: the call's
// operands, the shard bounds, each shard's result, and one task per shard
// slot, made the first time the slot is used and reused by every call
// after.
type shardCall struct {
	m      Model
	params []float64
	batch  []dataset.Sample
	bounds []int
	grads  []*[]float64 // GradInto: shard i's mean gradient; nil for Loss
	losses []float64    // Loss: shard i's mean loss
	fns    []func()
}

// start takes the call's operands and returns the number of shards, with a
// task and a result slot ready for each.
func (c *shardCall) start(m Model, params []float64, batch []dataset.Sample, par int) int {
	c.m, c.params, c.batch = m, params, batch
	c.bounds = shardBounds(c.bounds[:0], len(batch), par)
	shards := len(c.bounds) - 1
	for i := len(c.fns); i < shards; i++ {
		c.fns = append(c.fns, func() { c.shard(i) })
	}
	if len(c.grads) < shards {
		c.grads = make([]*[]float64, shards)
		c.losses = make([]float64, shards)
	}
	return shards
}

// shard computes shard i's result: its mean gradient into its scratch
// vector (uncleared: Model.GradInto overwrites), or its mean loss.
func (c *shardCall) shard(i int) {
	part := c.batch[c.bounds[i]:c.bounds[i+1]]
	if g := c.grads[i]; g != nil {
		c.m.GradInto(*g, c.params, part)
	} else {
		c.losses[i] = c.m.Loss(c.params, part)
	}
}

// finish drops the call's operands, so a pooled shardCall keeps no model,
// parameters or batch alive.
func (c *shardCall) finish() {
	c.m, c.params, c.batch = nil, nil, nil
	clear(c.grads)
}

// GradInto computes the mean gradient of the batch into dst by sharding
// the batch across the pool: shard i computes the mean gradient of its
// range into pooled scratch, and the shards are merged in shard order as
// dst = Σ_i (len_i/len) · g_i. Deterministic for a fixed pool size; see
// the type comment for the bit-identity caveat. The nil pool delegates to
// m.GradInto unchanged.
func (p *ParallelGrad) GradInto(dst, params []float64, m Model, batch []dataset.Sample) {
	if p == nil || len(batch) < 2 {
		m.GradInto(dst, params, batch)
		return
	}
	c := p.calls.get()
	shards := c.start(m, params, batch, p.par)
	for i := 0; i < shards; i++ {
		c.grads[i] = getVec(len(dst))
	}
	p.Run(c.fns[:shards]...)
	inv := 1 / float64(len(batch))
	for i := 0; i < shards; i++ {
		w := float64(c.bounds[i+1]-c.bounds[i]) * inv
		if i == 0 {
			linalg.ScaleInto(dst, w, *c.grads[i])
		} else {
			linalg.AXPY(dst, w, *c.grads[i])
		}
		putVec(c.grads[i])
	}
	c.finish()
	p.calls.put(c)
}

// Loss computes the mean loss of the batch by sharding it across the
// pool and combining the per-shard means with per-shard weights, in
// shard order. Same determinism contract as GradInto.
func (p *ParallelGrad) Loss(params []float64, m Model, batch []dataset.Sample) float64 {
	if p == nil || len(batch) < 2 {
		return m.Loss(params, batch)
	}
	c := p.calls.get()
	shards := c.start(m, params, batch, p.par)
	p.Run(c.fns[:shards]...)
	sum := 0.0
	inv := 1 / float64(len(batch))
	for i, l := range c.losses[:shards] {
		sum += l * float64(c.bounds[i+1]-c.bounds[i]) * inv
	}
	c.finish()
	p.calls.put(c)
	return sum
}
