package engine

import (
	"fmt"
	"runtime"
	"testing"

	"isgc/internal/dataset"
	"isgc/internal/model"
	"isgc/internal/placement"
)

// runWithCompute trains a fixed MLP/CR(8,3) workload at seed 11 on the
// given number of samples and batch size and returns the full result.
func runWithCompute(t *testing.T, samples, batch int, parallel bool, decodeCache int) *Result {
	t.Helper()
	d, err := dataset.SyntheticClusters(samples, 6, 3, 1.5, 41)
	if err != nil {
		t.Fatal(err)
	}
	p, err := placement.CR(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := isgcStrategy(t, p, nil, 11)
	res, err := Train(Config{
		Strategy:     st,
		Model:        model.MLP{Features: 6, Hidden: 8, Classes: 3},
		Data:         d,
		BatchSize:    batch,
		LearningRate: 0.1,
		W:            5,
		MaxSteps:     30,
		Seed:         11,
		Parallel:     parallel,
		DecodeCache:  decodeCache,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireBitIdentical compares two results step by step: every record
// field that derives from float arithmetic or decode choices, plus the
// final parameter vector, must match exactly.
func requireBitIdentical(t *testing.T, name string, ref, got *Result) {
	t.Helper()
	if len(ref.Run.Records) != len(got.Run.Records) {
		t.Fatalf("%s: %d records vs %d", name, len(got.Run.Records), len(ref.Run.Records))
	}
	for s, rr := range ref.Run.Records {
		gr := got.Run.Records[s]
		if rr.Loss != gr.Loss || rr.Accuracy != gr.Accuracy {
			t.Fatalf("%s: step %d loss/acc %v/%v, want %v/%v", name, s, gr.Loss, gr.Accuracy, rr.Loss, rr.Accuracy)
		}
		if rr.Available != gr.Available || rr.Chosen != gr.Chosen ||
			rr.RecoveredFraction != gr.RecoveredFraction || rr.Elapsed != gr.Elapsed {
			t.Fatalf("%s: step %d record differs: %+v vs %+v", name, s, gr, rr)
		}
		if len(rr.Partitions) != len(gr.Partitions) {
			t.Fatalf("%s: step %d partitions %v, want %v", name, s, gr.Partitions, rr.Partitions)
		}
		for j := range rr.Partitions {
			if rr.Partitions[j] != gr.Partitions[j] {
				t.Fatalf("%s: step %d partitions %v, want %v", name, s, gr.Partitions, rr.Partitions)
			}
		}
	}
	for j := range ref.Params {
		if ref.Params[j] != got.Params[j] {
			t.Fatalf("%s: param %d = %v, want %v", name, j, got.Params[j], ref.Params[j])
		}
	}
}

// TestGOMAXPROCSSeedEquivalence: the whole run — per-step records and
// final params — is bit-identical serial or parallel at GOMAXPROCS 1, 2 and
// 4: partitions are the unit of the parallel step, and a batch or a loss
// set larger than model.SampleBlock is split into fixed blocks whose
// combine order never depends on the core count. The "blocked" shape takes
// both past one block (300-sample batches, a 2,400-sample loss).
func TestGOMAXPROCSSeedEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, shape := range []struct {
		name           string
		samples, batch int
	}{{"small", 240, 8}, {"blocked", 8 * 300, 300}} {
		runtime.GOMAXPROCS(1)
		ref := runWithCompute(t, shape.samples, shape.batch, false, 0)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for _, parallel := range []bool{false, true} {
				name := fmt.Sprintf("%s GOMAXPROCS=%d parallel=%v", shape.name, procs, parallel)
				requireBitIdentical(t, name, ref, runWithCompute(t, shape.samples, shape.batch, parallel, 0))
			}
		}
	}
}

// TestDecodeCacheInEngine: with memoized decode the run must still
// recover the same number of partitions every step (every maximum
// independent set has the same size), and the cache must actually serve
// hits once masks repeat.
func TestDecodeCacheInEngine(t *testing.T) {
	ref := runWithCompute(t, 240, 8, false, 0)
	cached := runWithCompute(t, 240, 8, false, 64)
	for s, rr := range ref.Run.Records {
		cr := cached.Run.Records[s]
		if rr.RecoveredFraction != cr.RecoveredFraction || rr.Chosen != cr.Chosen {
			t.Fatalf("step %d: cached run recovered %v (|I|=%d), want %v (|I|=%d)",
				s, cr.RecoveredFraction, cr.Chosen, rr.RecoveredFraction, rr.Chosen)
		}
	}
}

// TestDecodeCacheStatsViaStrategy checks the DecodeCacher plumbing: the
// strategy exposes the scheme's counters and every step is either a hit
// or a miss.
func TestDecodeCacheStatsViaStrategy(t *testing.T) {
	d, err := dataset.SyntheticClusters(120, 4, 2, 1.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := placement.CR(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := isgcStrategy(t, p, nil, 5)
	const steps = 40
	_, err = Train(Config{
		Strategy:     st,
		Model:        model.LinearRegression{Features: 4},
		Data:         d,
		BatchSize:    8,
		LearningRate: 0.05,
		W:            4,
		MaxSteps:     steps,
		Seed:         5,
		DecodeCache:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	dc, ok := st.(DecodeCacher)
	if !ok {
		t.Fatal("isGC strategy does not implement DecodeCacher")
	}
	hits, misses := dc.DecodeCacheStats()
	// Recover decodes once per step; with only C(6,2)=15 possible
	// fastest-4 masks over 40 steps the cache must see repeats.
	if hits+misses != steps {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, steps)
	}
	if hits == 0 {
		t.Fatal("expected at least one decode-cache hit across repeated masks")
	}
}
