package engine

import (
	"testing"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/isgc"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
)

// Fig. 11-scale integration: 24 workers, 12 of them straggling with
// exponential delays (mean 1.5 s), CR(24, 2), waiting for the 12 fastest —
// the engine must train end-to-end at the paper's simulation scale, and
// the mean step time must sit near the base compute time because the 12
// non-straggling workers always win the race.
func TestEngineAtFig11Scale(t *testing.T) {
	const n = 24
	d, err := dataset.SyntheticClusters(240, 6, 3, 2.0, 31)
	if err != nil {
		t.Fatal(err)
	}
	p, err := placement.CR(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewISGC(isgc.New(p, 31))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(Config{
		Strategy:            st,
		Model:               model.SoftmaxRegression{Features: 6, Classes: 3},
		Data:                d,
		BatchSize:           4,
		LearningRate:        0.1,
		W:                   12,
		MaxSteps:            80,
		ComputePerPartition: 50 * time.Millisecond,
		Upload:              20 * time.Millisecond,
		Profile:             straggler.PartialProfile(n, 12, straggler.Exponential{Mean: 1500 * time.Millisecond}, 7),
		Seed:                31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Steps() != 80 {
		t.Fatalf("steps = %d", res.Run.Steps())
	}
	// Base time = 2·50 + 20 = 120 ms; the fastest 12 of 24 are exactly the
	// non-straggling half, so every step should cost exactly 120 ms.
	if mean := res.Run.MeanStepTime(); mean != 120*time.Millisecond {
		t.Fatalf("mean step time %v, want 120ms", mean)
	}
	// With 12 consecutive available workers in CR(24,2), the decoder packs
	// them at distance ≥ 2: recovery must be at least the Theorem 10 floor.
	lo, _ := p.AlphaBounds(12)
	for _, rec := range res.Run.Records {
		if rec.Chosen < lo {
			t.Fatalf("step %d chose %d workers, below floor %d", rec.Step, rec.Chosen, lo)
		}
	}
	// Training must still make progress on 12-availability.
	first, last := res.Run.Records[0].Loss, res.Run.FinalLoss()
	if !(last < 0.6*first) {
		t.Fatalf("loss %v → %v: no progress at scale", first, last)
	}
}
