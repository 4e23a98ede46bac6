package model

import (
	"math"
	"math/rand"
	"testing"

	"isgc/internal/linalg"
)

func testModels() []Model {
	return []Model{
		LinearRegression{Features: 5},
		LogisticRegression{Features: 5},
		SoftmaxRegression{Features: 5, Classes: 3},
		MLP{Features: 5, Hidden: 7, Classes: 3},
	}
}

// TestParallelGradMatchesSequential: the sharded kernel must agree with
// the sequential kernel to FP-reassociation tolerance, for every model
// and several shard counts.
func TestParallelGradMatchesSequential(t *testing.T) {
	for _, m := range testModels() {
		rng := rand.New(rand.NewSource(7))
		params := m.InitParams(3)
		batch := randomBatch(rng, 33, 5, 3)
		want := m.Grad(params, batch)
		wantLoss := m.Loss(params, batch)
		for _, par := range []int{2, 3, 4, 8} {
			p := NewParallelGrad(par)
			got := make([]float64, m.Dim())
			p.GradInto(got, params, m, batch)
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-12*(1+math.Abs(want[j])) {
					t.Errorf("%v par=%d: grad[%d] = %v, want %v", m, par, j, got[j], want[j])
					break
				}
			}
			if gotLoss := p.Loss(params, m, batch); math.Abs(gotLoss-wantLoss) > 1e-12*(1+math.Abs(wantLoss)) {
				t.Errorf("%v par=%d: loss = %v, want %v", m, par, gotLoss, wantLoss)
			}
			p.Close()
		}
	}
}

// TestParallelGradDeterministic: for a fixed shard count the sharded
// result must be bit-identical across repeated runs — the merge order is
// shard order, never goroutine-completion order.
func TestParallelGradDeterministic(t *testing.T) {
	m := MLP{Features: 5, Hidden: 7, Classes: 3}
	rng := rand.New(rand.NewSource(11))
	params := m.InitParams(5)
	batch := randomBatch(rng, 29, 5, 3)
	p := NewParallelGrad(4)
	defer p.Close()
	ref := make([]float64, m.Dim())
	p.GradInto(ref, params, m, batch)
	refLoss := p.Loss(params, m, batch)
	for run := 0; run < 20; run++ {
		got := make([]float64, m.Dim())
		p.GradInto(got, params, m, batch)
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("run %d: grad[%d] = %v, want bit-identical %v", run, j, got[j], ref[j])
			}
		}
		if l := p.Loss(params, m, batch); l != refLoss {
			t.Fatalf("run %d: loss = %v, want bit-identical %v", run, l, refLoss)
		}
	}
}

// TestParallelGradIntoDirtyBuffers: the sharded kernel hands each shard a
// pooled scratch vector with whatever the last borrower left in it, and
// merges into a destination it does not clear. With the pool and the
// destination full of NaN the result must still be, bit for bit, the shard
// means merged in shard order.
func TestParallelGradIntoDirtyBuffers(t *testing.T) {
	const par, n = 3, 10
	for _, m := range testModels() {
		rng := rand.New(rand.NewSource(13))
		params := m.InitParams(3)
		batch := randomBatch(rng, n, 5, 3)
		bounds := shardBounds(nil, n, par)
		want := make([]float64, m.Dim())
		for i := 0; i+1 < len(bounds); i++ {
			w := float64(bounds[i+1]-bounds[i]) * (1 / float64(n))
			g := m.Grad(params, batch[bounds[i]:bounds[i+1]])
			if i == 0 {
				linalg.ScaleInto(want, w, g)
			} else {
				linalg.AXPY(want, w, g)
			}
		}
		dirty := make([]*[]float64, 2*par)
		for i := range dirty {
			dirty[i] = getVec(m.Dim())
			poison(*dirty[i])
		}
		for _, vp := range dirty {
			putVec(vp)
		}
		p := NewParallelGrad(par)
		got := make([]float64, m.Dim())
		poison(got)
		p.GradInto(got, params, m, batch)
		p.Close()
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%v: grad[%d] = %v from dirty buffers, want %v", m, j, got[j], want[j])
			}
		}
	}
}

// TestParallelGradNested: Run inside Run must not deadlock (tasks that
// find no idle worker execute inline on the submitter).
func TestParallelGradNested(t *testing.T) {
	p := NewParallelGrad(2)
	defer p.Close()
	// One slot per inner task: the four of one outer task run on different
	// pool workers at once, so a shared sum[i] would be a data race.
	var slots [4][4]int
	outer := make([]func(), 4)
	for i := range outer {
		i := i
		outer[i] = func() {
			inner := make([]func(), 4)
			for j := range inner {
				j := j
				inner[j] = func() { slots[i][j] += j }
			}
			p.Run(inner...)
		}
	}
	p.Run(outer...)
	for i, row := range slots {
		if s := row[0] + row[1] + row[2] + row[3]; s != 6 {
			t.Fatalf("sum[%d] = %d, want 6", i, s)
		}
	}
}

// TestNilParallelGrad: the nil pool is the sequential path.
func TestNilParallelGrad(t *testing.T) {
	var p *ParallelGrad
	if p.Par() != 1 {
		t.Fatalf("nil pool Par() = %d", p.Par())
	}
	p.Close() // must not panic
	m := LinearRegression{Features: 3}
	rng := rand.New(rand.NewSource(1))
	params := m.InitParams(2)
	batch := randomBatch(rng, 9, 3, 2)
	got := make([]float64, m.Dim())
	p.GradInto(got, params, m, batch)
	want := m.Grad(params, batch)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("nil pool grad[%d] = %v, want %v", j, got[j], want[j])
		}
	}
	if NewParallelGrad(1) != nil {
		t.Fatal("NewParallelGrad(1) should be the nil sequential pool")
	}
}

// TestGradIntoAllocationFree: after warm-up the sequential GradInto
// kernel must not allocate — on a batch of whole eight-sample groups, on one
// with a padded last group, on one with a lone last sample, and at the
// benchmark's own shapes — and neither do Loss and Accuracy, whose grouped
// forward pass borrows the same pooled scratch. On every kernel path.
func TestGradIntoAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	eachKernelPath(t, func(t *testing.T) {
		check := func(m Model, features, classes, n int) {
			t.Helper()
			params := m.InitParams(4)
			batch := randomBatch(rand.New(rand.NewSource(2)), n, features, classes)
			dst := make([]float64, m.Dim())
			pass := func() {
				m.GradInto(dst, params, batch)
				benchSink = m.Loss(params, batch)
				if c, ok := m.(Classifier); ok {
					benchSink = Accuracy(c, params, batch)
				}
			}
			pass() // warm the scratch pool
			if allocs := testing.AllocsPerRun(20, pass); allocs > 0 {
				t.Errorf("%v batch %d: GradInto + Loss + Accuracy allocate %v objects/op after warm-up", m, n, allocs)
			}
		}
		for _, m := range testModels() {
			check(m, 5, 3, 16)
			check(m, 5, 3, 7)
			check(m, 5, 3, 9)
		}
		for _, sh := range kernelShapes {
			check(sh.m, sh.features, sh.classes, sh.batch)
			check(sh.m, sh.features, sh.classes, 7)
		}
	})
}

// TestParallelPoolAllocationFree: a warm pool's sharded Loss and GradInto
// and a two-task Run allocate nothing — the master calls pool.Loss every
// step and every worker calls Run every step. The sharded results keep the
// bits of the pool's first call.
func TestParallelPoolAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	p := NewParallelGrad(2)
	defer p.Close()
	for _, sh := range kernelShapes {
		m := sh.m
		params := m.InitParams(4)
		batch := randomBatch(rand.New(rand.NewSource(2)), sh.batch, sh.features, sh.classes)
		wantLoss := p.Loss(params, m, batch)
		want := make([]float64, m.Dim())
		p.GradInto(want, params, m, batch)
		dst := make([]float64, m.Dim())
		if allocs := testing.AllocsPerRun(20, func() { benchSink = p.Loss(params, m, batch) }); allocs != 0 {
			t.Errorf("%v batch %d: pool.Loss makes %v allocations per call", m, len(batch), allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() { p.GradInto(dst, params, m, batch) }); allocs != 0 {
			t.Errorf("%v batch %d: pool.GradInto makes %v allocations per call", m, len(batch), allocs)
		}
		if l := p.Loss(params, m, batch); math.Float64bits(l) != math.Float64bits(wantLoss) {
			t.Errorf("%v: loss %v, first call %v", m, l, wantLoss)
		}
		for j := range want {
			if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%v: grad[%d] = %v, first call %v", m, j, dst[j], want[j])
			}
		}
	}
	var a, b [64]float64
	tasks := []func(){
		func() { a[0]++ },
		func() { b[0]++ },
	}
	if allocs := testing.AllocsPerRun(20, func() { p.Run(tasks...) }); allocs != 0 {
		t.Errorf("Run with two tasks makes %v allocations per call", allocs)
	}
	if a[0] != 21 || b[0] != 21 {
		t.Fatalf("tasks ran %v and %v times, want 21 each", a[0], b[0])
	}
}
