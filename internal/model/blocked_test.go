package model

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"isgc/internal/dataset"
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

// blockedLens are batch lengths of two and three blocks: a whole last
// block, a last block with a padded eight-sample group, and one whose last
// group is a lone sample.
var blockedLens = []int{2 * SampleBlock, 2*SampleBlock + 13, 3*SampleBlock + 1}

// writtenOut is the blocked evaluation spelled out: each block's plain mean
// loss and gradient, weighted by its share of the batch and added in block
// order.
func writtenOut(m Model, params []float64, batch []dataset.Sample) (float64, []float64) {
	loss, grad := 0.0, make([]float64, m.Dim())
	inv := 1 / float64(len(batch))
	for lo := 0; lo < len(batch); lo += SampleBlock {
		part := batch[lo:min(lo+SampleBlock, len(batch))]
		w := float64(len(part)) * inv
		loss += m.Loss(params, part) * w
		if lo == 0 {
			linalg.ScaleInto(grad, w, m.Grad(params, part))
		} else {
			linalg.AXPY(grad, w, m.Grad(params, part))
		}
	}
	return loss, grad
}

// eachGOMAXPROCS runs fn at GOMAXPROCS 1, 2 and 4 and restores the setting.
func eachGOMAXPROCS(fn func(procs int)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		fn(procs)
	}
}

// TestBlockedOneBlockIsPlainKernel: a batch of at most SampleBlock samples
// is one block, and one block is the plain kernel bit for bit — so every
// loss and gradient of a batch that size keeps the bits it had before
// blocking.
func TestBlockedOneBlockIsPlainKernel(t *testing.T) {
	var e Blocked
	for _, m := range testModels() {
		rng := rand.New(rand.NewSource(1))
		params := m.InitParams(2)
		for _, n := range []int{1, 7, 240, SampleBlock} {
			batch := randomBatch(rng, n, 5, 3)
			if got, want := e.Loss(m, params, batch), m.Loss(params, batch); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v n=%d: loss %v, plain kernel %v", m, n, got, want)
			}
			got := make([]float64, m.Dim())
			poison(got)
			e.GradInto(got, params, m, batch)
			want := m.Grad(params, batch)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%v n=%d: grad[%d] = %v, plain kernel %v", m, n, j, got[j], want[j])
				}
			}
		}
	}
}

// TestBlockedMatchesSequential: over several blocks the evaluation agrees
// with the one-pass kernel to floating-point reassociation tolerance.
func TestBlockedMatchesSequential(t *testing.T) {
	var e Blocked
	for _, m := range testModels() {
		rng := rand.New(rand.NewSource(7))
		params := m.InitParams(3)
		for _, n := range blockedLens {
			batch := randomBatch(rng, n, 5, 3)
			want := m.Grad(params, batch)
			got := make([]float64, m.Dim())
			e.GradInto(got, params, m, batch)
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-12*(1+math.Abs(want[j])) {
					t.Fatalf("%v n=%d: grad[%d] = %v, want %v", m, n, j, got[j], want[j])
				}
			}
			wantLoss := m.Loss(params, batch)
			if gotLoss := e.Loss(m, params, batch); math.Abs(gotLoss-wantLoss) > 1e-12*(1+math.Abs(wantLoss)) {
				t.Fatalf("%v n=%d: loss = %v, want %v", m, n, gotLoss, wantLoss)
			}
		}
	}
}

// TestBlockedBitsIgnoreCoreCount: the blocked loss and gradient are the
// written-out block sum bit for bit at GOMAXPROCS 1, 2 and 4, on repeated
// calls — the block bounds and the combine order never depend on how many
// goroutines ran the blocks or which finished first.
func TestBlockedBitsIgnoreCoreCount(t *testing.T) {
	m := MLP{Features: 5, Hidden: 7, Classes: 3}
	rng := rand.New(rand.NewSource(11))
	params := m.InitParams(5)
	batch := randomBatch(rng, blockedLens[1], 5, 3)
	wantLoss, want := writtenOut(m, params, batch)
	var e Blocked
	got := make([]float64, m.Dim())
	eachGOMAXPROCS(func(procs int) {
		for run := 0; run < 10; run++ {
			e.GradInto(got, params, m, batch)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("GOMAXPROCS=%d run %d: grad[%d] = %v, want %v", procs, run, j, got[j], want[j])
				}
			}
			if l := e.Loss(m, params, batch); math.Float64bits(l) != math.Float64bits(wantLoss) {
				t.Fatalf("GOMAXPROCS=%d run %d: loss = %v, want %v", procs, run, l, wantLoss)
			}
		}
	})
}

// TestBlockedIntoDirtyBuffers: GradInto overwrites its destination and the
// scratch the previous call left, never reads them. With both full of NaN
// the result must still be, bit for bit, the written-out block sum.
func TestBlockedIntoDirtyBuffers(t *testing.T) {
	for _, m := range testModels() {
		rng := rand.New(rand.NewSource(13))
		params := m.InitParams(3)
		for _, n := range blockedLens {
			batch := randomBatch(rng, n, 5, 3)
			_, want := writtenOut(m, params, batch)
			var e Blocked
			got := make([]float64, m.Dim())
			e.GradInto(got, params, m, batch) // grow the scratch
			poison(e.grads)
			poison(got)
			e.GradInto(got, params, m, batch)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%v n=%d: grad[%d] = %v from dirty buffers, want %v", m, n, j, got[j], want[j])
				}
			}
		}
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

// TestComputePoolAllocationFree: a warm Blocked's Loss and GradInto over
// several blocks allocate nothing at GOMAXPROCS 1, 2 and 4 — the master
// evaluates the loss every step and a one-partition worker its gradient —
// and keep the bits of the first call at GOMAXPROCS 1.
func TestComputePoolAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	for _, sh := range kernelShapes {
		m := sh.m
		params := m.InitParams(4)
		batch := randomBatch(rand.New(rand.NewSource(2)), 2*SampleBlock+sh.batch, sh.features, sh.classes)
		var e Blocked
		var wantLoss float64
		want := make([]float64, m.Dim())
		dst := make([]float64, m.Dim())
		eachGOMAXPROCS(func(procs int) {
			if procs == 1 {
				wantLoss = e.Loss(m, params, batch)
				e.GradInto(want, params, m, batch)
			}
			if allocs := testing.AllocsPerRun(20, func() { benchSink = e.Loss(m, params, batch) }); allocs != 0 {
				t.Errorf("%s GOMAXPROCS=%d: Blocked.Loss makes %v allocations per call", sh.name, procs, allocs)
			}
			if allocs := testing.AllocsPerRun(20, func() { e.GradInto(dst, params, m, batch) }); allocs != 0 {
				t.Errorf("%s GOMAXPROCS=%d: Blocked.GradInto makes %v allocations per call", sh.name, procs, allocs)
			}
			if l := e.Loss(m, params, batch); math.Float64bits(l) != math.Float64bits(wantLoss) {
				t.Errorf("%s GOMAXPROCS=%d: loss %v, at GOMAXPROCS=1 %v", sh.name, procs, l, wantLoss)
			}
			for j := range want {
				if math.Float64bits(dst[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s GOMAXPROCS=%d: grad[%d] = %v, at GOMAXPROCS=1 %v", sh.name, procs, j, dst[j], want[j])
				}
			}
		})
	}
}
