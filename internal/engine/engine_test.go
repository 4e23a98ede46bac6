package engine

import (
	"math"
	"strings"
	"testing"
	"time"

	"isgc/internal/bitset"
	"isgc/internal/dataset"
	"isgc/internal/gc"
	"isgc/internal/isgc"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
)

func clusterData(t *testing.T, m int) *dataset.Dataset {
	t.Helper()
	d, err := dataset.SyntheticClusters(m, 6, 3, 4.0, 101)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func isgcStrategy(t *testing.T, p *placement.Placement, perr error, seed int64) Strategy {
	t.Helper()
	if perr != nil {
		t.Fatal(perr)
	}
	st, err := NewISGC(isgc.New(p, seed))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func baseConfig(t *testing.T, st Strategy) Config {
	t.Helper()
	return Config{
		Strategy:     st,
		Model:        model.SoftmaxRegression{Features: 6, Classes: 3},
		Data:         clusterData(t, 240),
		BatchSize:    16,
		LearningRate: 0.3,
		W:            st.N(),
		MaxSteps:     60,
		Seed:         42,
	}
}

func TestValidation(t *testing.T) {
	st, err := NewSyncSGD(4)
	if err != nil {
		t.Fatal(err)
	}
	good := baseConfig(t, st)
	mutations := []func(*Config){
		func(c *Config) { c.Strategy = nil },
		func(c *Config) { c.Model = nil },
		func(c *Config) { c.Data = nil },
		func(c *Config) { c.BatchSize = 0 },
		func(c *Config) { c.LearningRate = 0 },
		func(c *Config) { c.MaxSteps = 0 },
	}
	for i, mut := range mutations {
		bad := good
		mut(&bad)
		if _, err := Train(bad); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
}

// mismatchedData is every way a dataset can disagree with a 6-feature,
// 3-class model: each used to be a panic inside a compute goroutine (or,
// for short samples, a silent truncation) at step 1.
func mismatchedData(t *testing.T) map[string]*dataset.Dataset {
	t.Helper()
	build := func(dim int, y float64) *dataset.Dataset {
		samples := make([]dataset.Sample, 240)
		for i := range samples {
			samples[i] = dataset.Sample{X: make([]float64, dim), Y: float64(i % 3)}
		}
		samples[239].Y = y
		d, err := dataset.New(samples)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	return map[string]*dataset.Dataset{
		"label = Classes": build(6, 3),
		"negative label":  build(6, -1),
		"NaN label":       build(6, math.NaN()),
		"long samples":    build(7, 0),
		"short samples":   build(5, 0),
	}
}

func TestDataModelMismatchIsAConfigError(t *testing.T) {
	st, err := NewSyncSGD(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []model.Model{
		model.SoftmaxRegression{Features: 6, Classes: 3},
		model.MLP{Features: 6, Hidden: 4, Classes: 3},
	} {
		for name, data := range mismatchedData(t) {
			cfg := baseConfig(t, st)
			cfg.Model, cfg.Data = m, data
			if _, err := Train(cfg); err == nil || !strings.Contains(err.Error(), "engine: model:") {
				t.Errorf("%v, %s: err = %v, want a model/data config error", m, name, err)
			}
		}
	}
}

func TestIndivisibleDataRejected(t *testing.T) {
	st, err := NewSyncSGD(7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, st) // 240 % 7 != 0
	if _, err := Train(cfg); err == nil {
		t.Fatal("expected partitioning error")
	}
}

func TestSyncSGDTrainsToLowLoss(t *testing.T) {
	st, err := NewSyncSGD(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, st)
	cfg.MaxSteps = 120
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Steps() != 120 {
		t.Fatalf("steps = %d", res.Run.Steps())
	}
	first := res.Run.Records[0].Loss
	last := res.Run.FinalLoss()
	if !(last < 0.5*first) {
		t.Fatalf("loss %v → %v, expected meaningful decrease", first, last)
	}
	// Sync-SGD always recovers everything.
	for _, rec := range res.Run.Records {
		if rec.RecoveredFraction != 1.0 {
			t.Fatalf("sync recovered %v at step %d", rec.RecoveredFraction, rec.Step)
		}
		if rec.Available != 4 {
			t.Fatalf("sync available %d", rec.Available)
		}
	}
}

func TestLossThresholdStopsEarly(t *testing.T) {
	st, err := NewSyncSGD(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, st)
	cfg.MaxSteps = 500
	cfg.LossThreshold = 0.4
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("expected convergence")
	}
	if res.StepsToThreshold != res.Run.Steps() {
		t.Fatalf("StepsToThreshold %d ≠ recorded steps %d", res.StepsToThreshold, res.Run.Steps())
	}
	if res.Run.FinalLoss() > 0.4 {
		t.Fatalf("final loss %v above threshold", res.Run.FinalLoss())
	}
	if res.Run.Steps() >= 500 {
		t.Fatal("did not stop early")
	}
}

func TestISGCRecoversUnderStragglers(t *testing.T) {
	p, perr := placement.CR(4, 2)
	st := isgcStrategy(t, p, perr, 9)
	cfg := baseConfig(t, st)
	cfg.W = 2
	cfg.Profile = straggler.NewProfile(4, straggler.Exponential{Mean: time.Second}, 5)
	cfg.ComputePerPartition = 10 * time.Millisecond
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Run.Records {
		if rec.Available != 2 {
			t.Fatalf("available %d, want 2", rec.Available)
		}
		// With CR(4,2) and w=2, recovery is 0.5 (adjacent pair) or 1.0
		// (opposite pair).
		if rec.RecoveredFraction != 0.5 && rec.RecoveredFraction != 1.0 {
			t.Fatalf("recovered %v, want 0.5 or 1.0", rec.RecoveredFraction)
		}
		if rec.Elapsed <= 0 {
			t.Fatal("elapsed must be positive with nonzero compute time")
		}
	}
}

// IS-GC must recover at least as much as IS-SGD at every w — the paper's
// headline comparison (Fig. 12(a)).
func TestISGCRecoversMoreThanISSGD(t *testing.T) {
	for w := 1; w <= 4; w++ {
		pfr, perr := placement.FR(4, 2)
		stFR := isgcStrategy(t, pfr, perr, 3)
		stIS, err := NewISSGD(4)
		if err != nil {
			t.Fatal(err)
		}
		var fr, is float64
		for _, pair := range []struct {
			st  Strategy
			dst *float64
		}{{stFR, &fr}, {stIS, &is}} {
			cfg := baseConfig(t, pair.st)
			cfg.W = w
			cfg.Profile = straggler.NewProfile(4, straggler.Exponential{Mean: time.Second}, 77)
			cfg.MaxSteps = 40
			res, err := Train(cfg)
			if err != nil {
				t.Fatal(err)
			}
			*pair.dst = res.Run.MeanRecovered()
		}
		if fr < is-1e-9 {
			t.Fatalf("w=%d: IS-GC-FR recovered %v < IS-SGD %v", w, fr, is)
		}
		wantIS := float64(w) / 4
		if math.Abs(is-wantIS) > 1e-9 {
			t.Fatalf("w=%d: IS-SGD recovered %v, want %v", w, is, wantIS)
		}
	}
}

// At w = n-c+1 IS-GC recovers fully, matching classic GC (Fig. 12(a) at w=3).
func TestISGCFullRecoveryAtGCThreshold(t *testing.T) {
	p, perr := placement.CR(4, 2)
	st := isgcStrategy(t, p, perr, 4)
	cfg := baseConfig(t, st)
	cfg.W = 3
	cfg.Profile = straggler.NewProfile(4, straggler.Exponential{Mean: 500 * time.Millisecond}, 6)
	cfg.MaxSteps = 30
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Run.MeanRecovered(); got != 1.0 {
		t.Fatalf("mean recovered %v, want 1.0", got)
	}
}

func TestClassicGCWaitsForExactlyMinWorkers(t *testing.T) {
	code, err := gc.NewCR(4, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewClassicGC(code)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, st)
	cfg.W = 1 // must be ignored: GC needs n-c+1 = 3
	cfg.Profile = straggler.NewProfile(4, straggler.Exponential{Mean: time.Second}, 8)
	cfg.MaxSteps = 25
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Run.Records {
		if rec.Available != 3 {
			t.Fatalf("GC waited for %d workers, want 3", rec.Available)
		}
		if rec.RecoveredFraction != 1.0 {
			t.Fatalf("GC recovered %v, want full", rec.RecoveredFraction)
		}
	}
}

// Identical seeds ⇒ identical trajectories: schemes that fully recover in
// every step (Sync-SGD and classic GC at w=n-c+1) must produce exactly the
// same parameter path, because ĝ/|D_d| is the same full mean gradient.
func TestFullRecoverySchemesShareTrajectory(t *testing.T) {
	stSync, err := NewSyncSGD(4)
	if err != nil {
		t.Fatal(err)
	}
	code, err := gc.NewCR(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	stGC, err := NewClassicGC(code)
	if err != nil {
		t.Fatal(err)
	}
	pfr, perr := placement.FR(4, 2)
	stFR := isgcStrategy(t, pfr, perr, 2)

	var params [][]float64
	for _, st := range []Strategy{stSync, stGC, stFR} {
		cfg := baseConfig(t, st)
		cfg.W = st.N() // full availability; FR IS-GC also fully recovers
		cfg.MaxSteps = 30
		res, err := Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		params = append(params, res.Params)
	}
	for i := 1; i < len(params); i++ {
		for j := range params[0] {
			if math.Abs(params[0][j]-params[i][j]) > 1e-8 {
				t.Fatalf("trajectory %d diverged at param %d: %v vs %v", i, j, params[0][j], params[i][j])
			}
		}
	}
}

func TestTrainDeterminism(t *testing.T) {
	run := func() *Result {
		p, perr := placement.CR(8, 2)
		st := isgcStrategy(t, p, perr, 5)
		d, err := dataset.SyntheticClusters(240, 6, 3, 4.0, 101)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Strategy:     st,
			Model:        model.SoftmaxRegression{Features: 6, Classes: 3},
			Data:         d,
			BatchSize:    8,
			LearningRate: 0.2,
			W:            4,
			MaxSteps:     40,
			Seed:         9,
			Profile:      straggler.NewProfile(8, straggler.Exponential{Mean: time.Second}, 13),
		}
		res, err := Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Run.Steps() != b.Run.Steps() {
		t.Fatal("step counts differ")
	}
	for i := range a.Run.Records {
		ra, rb := a.Run.Records[i], b.Run.Records[i]
		if ra.Loss != rb.Loss || ra.RecoveredFraction != rb.RecoveredFraction || ra.Elapsed != rb.Elapsed {
			t.Fatalf("step %d records differ: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestEvalEverySkipsEvaluations(t *testing.T) {
	st, err := NewSyncSGD(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, st)
	cfg.MaxSteps = 20
	cfg.EvalEvery = 5
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Within an eval window the recorded loss is constant.
	if res.Run.Records[0].Loss != res.Run.Records[3].Loss {
		t.Fatal("losses within an eval window must repeat the last evaluated value")
	}
	if res.Run.Records[4].Loss == res.Run.Records[3].Loss {
		t.Fatal("loss must refresh at the eval boundary")
	}
}

func TestStrategyAccessors(t *testing.T) {
	stSync, _ := NewSyncSGD(4)
	stIS, _ := NewISSGD(4)
	code, err := gc.NewFR(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	stGC, _ := NewClassicGC(code)
	pcr, perr := placement.CR(4, 2)
	stCR := isgcStrategy(t, pcr, perr, 1)
	phr, perr2 := placement.HR(8, 2, 2, 2)
	stHR := isgcStrategy(t, phr, perr2, 1)

	cases := []struct {
		st         Strategy
		name       string
		c          int
		waitForOne int
	}{
		{stSync, "Sync-SGD", 1, 4},
		{stIS, "IS-SGD", 1, 1},
		{stGC, "GC-FR", 2, 3},
		{stCR, "IS-GC-CR", 2, 1},
		{stHR, "IS-GC-HR(c1=2,c2=2)", 4, 1},
	}
	for _, tc := range cases {
		if tc.st.Name() != tc.name {
			t.Errorf("Name = %q, want %q", tc.st.Name(), tc.name)
		}
		if tc.st.C() != tc.c {
			t.Errorf("%s: C = %d, want %d", tc.name, tc.st.C(), tc.c)
		}
		if got := tc.st.WaitFor(1); got != tc.waitForOne {
			t.Errorf("%s: WaitFor(1) = %d, want %d", tc.name, got, tc.waitForOne)
		}
		if tc.st.WaitFor(99) > tc.st.N() {
			t.Errorf("%s: WaitFor must clamp to n", tc.name)
		}
		if len(tc.st.Partitions(0)) != tc.c {
			t.Errorf("%s: Partitions(0) wrong length", tc.name)
		}
	}
	if !strings.HasPrefix(stHR.Name(), "IS-GC-HR") {
		t.Error("HR name prefix")
	}
}

func TestConstructorNilChecks(t *testing.T) {
	if _, err := NewSyncSGD(0); err == nil {
		t.Error("NewSyncSGD(0) must fail")
	}
	if _, err := NewISSGD(-1); err == nil {
		t.Error("NewISSGD(-1) must fail")
	}
	if _, err := NewClassicGC(nil); err == nil {
		t.Error("NewClassicGC(nil) must fail")
	}
	if _, err := NewISGC(nil); err == nil {
		t.Error("NewISGC(nil) must fail")
	}
}

func TestRecoverErrorsOnMissingGradients(t *testing.T) {
	stSync, _ := NewSyncSGD(2)
	full := bitset.FromSlice([]int{0, 1})
	if _, _, err := stSync.Recover(full, make([][]float64, 2)); err == nil {
		t.Error("Sync-SGD must error on nil gradients")
	}
	if _, _, err := stSync.Recover(bitset.FromSlice([]int{0}), make([][]float64, 2)); err == nil {
		t.Error("Sync-SGD must error on partial availability")
	}
	stIS, _ := NewISSGD(2)
	if _, _, err := stIS.Recover(bitset.FromSlice([]int{1}), make([][]float64, 2)); err == nil {
		t.Error("IS-SGD must error on nil gradient of available worker")
	}
}
