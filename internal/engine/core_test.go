package engine

import (
	"math"
	"math/rand"
	"testing"

	"isgc/internal/bitset"
	"isgc/internal/placement"
)

// coreStep decodes and applies one step on core from the given on-time
// workers' uploads.
func coreStep(t *testing.T, core *StepCore, step int, workers []int, uploads [][]float64) {
	t.Helper()
	n := len(uploads)
	avail := bitset.New(n)
	coded := make([][]float64, n)
	for _, w := range workers {
		avail.Add(w)
		coded[w] = uploads[w]
	}
	dec, err := core.Decode(step, avail, coded)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Update(dec); err != nil {
		t.Fatal(err)
	}
}

func randVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for j := range v {
		v[j] = rng.NormFloat64()
	}
	return v
}

// disjointWorkers returns a random non-empty set of workers with pairwise
// disjoint partitions, in random order.
func disjointWorkers(rng *rand.Rand, st Strategy) []int {
	taken := bitset.New(st.N())
	var out []int
	for _, w := range rng.Perm(st.N()) {
		free := true
		for _, d := range st.Partitions(w) {
			free = free && !taken.Contains(d)
		}
		if free && (len(out) == 0 || rng.Intn(4) > 0) {
			out = append(out, w)
			for _, d := range st.Partitions(w) {
				taken.Add(d)
			}
		}
	}
	return out
}

// TestFoldLaw is the bounded-staleness contract, tested once on the core:
// late uploads on disjoint partitions, folded in any order and interleaved
// across the open steps, leave the parameters of a run whose steps had
// waited for all of them.
func TestFoldLaw(t *testing.T) {
	const dim, k = 7, 2
	p, err := placement.CR(8, 2)
	cr := isgcStrategy(t, p, err, 5)
	sgd, err := NewISSGD(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		st := []Strategy{sgd, cr}[trial%2]
		cfg := Config{Strategy: st, LearningRate: 0.1 + rng.Float64(), Staleness: k, MaxSteps: 10,
			LRSchedule: func(step int) float64 { return 1 / float64(1+step) }}
		init := randVec(rng, dim)
		folding := NewStepCore(&cfg, append([]float64(nil), init...))
		waiting := NewStepCore(&cfg, append([]float64(nil), init...))

		type late struct {
			step, worker int
			coded        []float64
		}
		var lates []late
		for step := 0; step < k; step++ {
			uploads := make([][]float64, st.N())
			for i := range uploads {
				uploads[i] = randVec(rng, dim)
			}
			all := disjointWorkers(rng, st)
			onTime := 1 + rng.Intn(len(all))
			coreStep(t, folding, step, all[:onTime], uploads)
			coreStep(t, waiting, step, all, uploads)
			for _, w := range all[onTime:] {
				lates = append(lates, late{step, w, uploads[w]})
			}
		}
		rng.Shuffle(len(lates), func(i, j int) { lates[i], lates[j] = lates[j], lates[i] })
		for _, l := range lates {
			if _, ok := folding.Fold(l.step, l.worker, l.coded); !ok {
				t.Fatalf("trial %d: disjoint upload (step %d, worker %d) refused", trial, l.step, l.worker)
			}
		}
		for j, want := range waiting.Params() {
			got := folding.Params()[j]
			if math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
				t.Fatalf("trial %d (%s, %d folds): param %d = %v, waiting run has %v",
					trial, st.Name(), len(lates), j, got, want)
			}
		}
	}
}

// TestFoldRefusals: an upload that would count a partition or a worker
// twice, has the wrong shape, or is older than the window is refused and
// changes nothing.
func TestFoldRefusals(t *testing.T) {
	const dim, k = 5, 2
	p, err := placement.CR(8, 2) // worker i holds partitions {i, i+1 mod 8}
	st := isgcStrategy(t, p, err, 5)
	rng := rand.New(rand.NewSource(3))
	cfg := Config{Strategy: st, LearningRate: 0.5, Staleness: k, MaxSteps: 10}
	core := NewStepCore(&cfg, randVec(rng, dim))
	uploads := make([][]float64, st.N())
	for i := range uploads {
		uploads[i] = randVec(rng, dim)
	}
	coreStep(t, core, 0, []int{0}, uploads) // step 0 counts partitions {0,1}

	refused := func(why string, step, worker int, coded []float64) {
		t.Helper()
		before := append([]float64(nil), core.Params()...)
		if _, ok := core.Fold(step, worker, coded); ok {
			t.Fatalf("%s: fold accepted", why)
		}
		for j, v := range core.Params() {
			if math.Float64bits(v) != math.Float64bits(before[j]) {
				t.Fatalf("%s: refused fold moved param %d", why, j)
			}
		}
	}
	refused("overlaps the decoded set", 0, 1, uploads[1]) // partitions {1,2}
	refused("overlaps the decoded set", 0, 7, uploads[7]) // partitions {7,0}
	refused("worker already counted", 0, 0, uploads[0])
	refused("wrong dimension", 0, 4, uploads[4][:dim-1])
	refused("worker out of range", 0, 8, uploads[4])
	refused("step never decoded", 1, 4, uploads[4])
	if r, ok := core.Fold(0, 2, uploads[2]); !ok || r != 4 { // partitions {2,3}
		t.Fatalf("disjoint upload: normalizer %d ok=%v, want 4 true", r, ok)
	}
	refused("worker folded before", 0, 2, uploads[2])
	refused("overlaps a folded upload", 0, 3, uploads[3]) // partitions {3,4}

	// Steps 1 and 2 push step 0 out of the k = 2 window.
	coreStep(t, core, 1, []int{0}, uploads)
	if _, ok := core.Fold(0, 4, uploads[4]); !ok { // still open while step 2 gathers
		t.Fatal("upload inside the window refused")
	}
	coreStep(t, core, 2, []int{0}, uploads)
	refused("older than the window", 0, 6, uploads[6])
	if _, ok := core.Fold(1, 6, uploads[6]); !ok {
		t.Fatal("upload for a step inside the window refused")
	}

	// Without a window nothing folds.
	plain := NewStepCore(&Config{Strategy: st, LearningRate: 0.5, MaxSteps: 10}, randVec(rng, dim))
	coreStep(t, plain, 0, []int{0}, uploads)
	if _, ok := plain.Fold(0, 2, uploads[2]); ok {
		t.Fatal("fold accepted at Staleness 0")
	}
}
