package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"isgc/internal/analysis"
	"isgc/internal/bitset"
	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/graph"
	"isgc/internal/isgc"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
	"isgc/internal/trace"
)

// analysisExpectedRecovery wraps the exact/Monte-Carlo expectation with the
// defaults the sweeps use.
func analysisExpectedRecovery(p *placement.Placement, w int, seed int64) (float64, error) {
	return analysis.ExpectedRecovery(p, w, 200000, 20000, seed)
}

// AblationConfig parameterizes the ablation studies for the design points
// DESIGN.md calls out: the Sec. IV gather policies (fixed w vs adaptive w
// vs deadline), the enduring-straggler effect behind Fig. 12(a)'s 99.6%,
// and the decoder-quality ablation (single-start greedy vs the paper's
// multi-start decoder vs the exact oracle).
type AblationConfig struct {
	// N, C fix the placement (CR for gather ablations).
	N, C int
	// Trials averages the training ablations; steps per run come from
	// MaxSteps.
	Trials   int
	MaxSteps int
	// DelayMean parameterizes the exponential stragglers.
	DelayMean time.Duration
	// Seed drives everything.
	Seed int64
}

// DefaultAblations returns a configuration sized for seconds.
func DefaultAblations() AblationConfig {
	return AblationConfig{
		N: 4, C: 2,
		Trials:    3,
		MaxSteps:  60,
		DelayMean: 400 * time.Millisecond,
		Seed:      5,
	}
}

// GatherRow is one gather-policy ablation result.
type GatherRow struct {
	Policy    string
	Recovered float64
	StepTime  time.Duration
	FinalLoss float64
}

// GatherPolicies compares fixed-w, adaptive-w, and deadline gathers for
// IS-GC over CR(n, c) under identical stragglers and seeds.
func GatherPolicies(cfg AblationConfig) ([]GatherRow, *trace.Table, error) {
	if cfg.N <= 0 || cfg.Trials <= 0 {
		return nil, nil, fmt.Errorf("experiments: invalid ablation config %+v", cfg)
	}
	data, err := dataset.SyntheticClusters(240, 6, 3, 1.0, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	base := func(trialSeed int64) (engine.Config, error) {
		p, err := placement.CR(cfg.N, cfg.C)
		if err != nil {
			return engine.Config{}, err
		}
		st, err := engine.NewISGC(isgc.New(p, trialSeed))
		if err != nil {
			return engine.Config{}, err
		}
		return engine.Config{
			Strategy:            st,
			Model:               mdl,
			Data:                data,
			BatchSize:           2,
			LearningRate:        0.2,
			MaxSteps:            cfg.MaxSteps,
			ComputePerPartition: 30 * time.Millisecond,
			Upload:              250 * time.Millisecond,
			Profile:             straggler.NewProfile(cfg.N, straggler.Exponential{Mean: cfg.DelayMean}, trialSeed+100),
			Seed:                trialSeed,
		}, nil
	}

	policies := []struct {
		name  string
		apply func(*engine.Config)
	}{
		{"fixed w=2", func(c *engine.Config) { c.W = 2 }},
		{"fixed w=3", func(c *engine.Config) { c.W = 3 }},
		{"adaptive w: 1→n", func(c *engine.Config) {
			maxSteps := c.MaxSteps
			n := cfg.N
			c.WSchedule = func(step int) int {
				// Ramp from 1 to n across the run (Sec. IV's suggestion).
				return 1 + step*(n-1)/maxIntLocal(1, maxSteps-1)
			}
		}},
		{"deadline=base+mean", func(c *engine.Config) {
			c.Deadline = time.Duration(cfg.C)*30*time.Millisecond + 250*time.Millisecond + cfg.DelayMean
		}},
	}

	var rows []GatherRow
	for _, pol := range policies {
		row := GatherRow{Policy: pol.name}
		for trial := 0; trial < cfg.Trials; trial++ {
			ecfg, err := base(cfg.Seed + int64(trial)*977)
			if err != nil {
				return nil, nil, err
			}
			pol.apply(&ecfg)
			res, err := engine.Train(ecfg)
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: gather %q: %w", pol.name, err)
			}
			row.Recovered += res.Run.MeanRecovered()
			row.StepTime += res.Run.MeanStepTime()
			row.FinalLoss += res.Run.FinalLoss()
		}
		inv := 1 / float64(cfg.Trials)
		row.Recovered *= inv
		row.StepTime = time.Duration(float64(row.StepTime) * inv)
		row.FinalLoss *= inv
		rows = append(rows, row)
	}
	tab := trace.NewTable(
		fmt.Sprintf("Ablation: gather policies for IS-GC-CR(%d,%d), %d steps", cfg.N, cfg.C, cfg.MaxSteps),
		"policy", "recovered_fraction", "avg_step_time", "final_loss")
	for _, r := range rows {
		tab.AddRow(r.Policy, r.Recovered, r.StepTime, r.FinalLoss)
	}
	return rows, tab, nil
}

// EnduringStragglerRow compares recovery with and without a pinned-slow
// worker — the effect the paper credits for >expected recovery at w=2.
type EnduringStragglerRow struct {
	Setup     string
	Recovered float64
}

// EnduringStraggler reproduces the Fig. 12(a) footnote: with one worker
// consistently slow, the availability sets concentrate on the remaining
// workers and IS-GC over FR recovers almost everything at w = 2.
func EnduringStraggler(cfg AblationConfig) ([]EnduringStragglerRow, *trace.Table, error) {
	if cfg.N <= 0 || cfg.Trials <= 0 {
		return nil, nil, fmt.Errorf("experiments: invalid ablation config %+v", cfg)
	}
	data, err := dataset.SyntheticClusters(240, 6, 3, 1.0, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	run := func(prof *straggler.Profile, trialSeed int64) (float64, error) {
		p, err := placement.FR(cfg.N, cfg.C)
		if err != nil {
			return 0, err
		}
		st, err := engine.NewISGC(isgc.New(p, trialSeed))
		if err != nil {
			return 0, err
		}
		res, err := engine.Train(engine.Config{
			Strategy:     st,
			Model:        mdl,
			Data:         data,
			BatchSize:    2,
			LearningRate: 0.2,
			W:            2,
			MaxSteps:     cfg.MaxSteps,
			Profile:      prof,
			Seed:         trialSeed,
		})
		if err != nil {
			return 0, err
		}
		return res.Run.MeanRecovered(), nil
	}

	// Three straggler worlds. One pinned straggler does NOT change the
	// FR(4,2) w=2 expectation (the pair is drawn from the remaining three
	// workers and still lands in the same group 1/3 of the time: E = 5/6,
	// same as homogeneous). The paper's 99.6% arises when the enduring
	// stragglers leave a persistent *cross-group* fast pair — here one
	// pinned-slow worker per group.
	setups := []struct {
		name string
		prof func(trialSeed int64) *straggler.Profile
	}{
		{"homogeneous stragglers", func(s int64) *straggler.Profile {
			return straggler.NewProfile(cfg.N, straggler.Exponential{Mean: cfg.DelayMean}, s+1)
		}},
		{"worker 0 pinned 50x slow", func(s int64) *straggler.Profile {
			base := straggler.NewProfile(cfg.N, straggler.Exponential{Mean: cfg.DelayMean}, s+1)
			return base.WithEnduringStraggler(0, 50, s+2)
		}},
		{"one pinned per group (paper's 99.6% case)", func(s int64) *straggler.Profile {
			base := straggler.NewProfile(cfg.N, straggler.Exponential{Mean: cfg.DelayMean}, s+1)
			return base.WithEnduringStraggler(0, 50, s+2).WithEnduringStraggler(cfg.C, 50, s+3)
		}},
	}
	rows := make([]EnduringStragglerRow, len(setups))
	for i, setup := range setups {
		rows[i].Setup = setup.name
		for trial := 0; trial < cfg.Trials; trial++ {
			trialSeed := cfg.Seed + int64(trial)*557
			r, err := run(setup.prof(trialSeed), trialSeed)
			if err != nil {
				return nil, nil, err
			}
			rows[i].Recovered += r
		}
		rows[i].Recovered /= float64(cfg.Trials)
	}
	tab := trace.NewTable(
		fmt.Sprintf("Ablation: enduring straggler, IS-GC-FR(%d,%d), w=2", cfg.N, cfg.C),
		"setup", "recovered_fraction")
	for _, r := range rows {
		tab.AddRow(r.Setup, r.Recovered)
	}
	return rows, tab, nil
}

// DecoderQualityRow is one row of the decoder ablation.
type DecoderQualityRow struct {
	Decoder string
	// MeanAlphaRatio is E[found size / optimal size] over random W'.
	MeanAlphaRatio float64
	// OptimalFraction is the fraction of instances decoded optimally.
	OptimalFraction float64
}

// DecoderQuality quantifies why the paper's multi-start greedy matters: a
// naive single-start greedy walk is not always optimal (Fig. 4(b)'s trap),
// the paper's decoder always is, and both are compared against the exact
// oracle on random CR availability sets.
func DecoderQuality(n, c, trials int, seed int64) ([]DecoderQualityRow, *trace.Table, error) {
	p, err := placement.CR(n, c)
	if err != nil {
		return nil, nil, err
	}
	scheme := isgc.New(p, seed)
	rng := rand.New(rand.NewSource(seed + 9))

	singleStart := func(avail *bitset.Set) int {
		// Greedy walk from the lowest available vertex only.
		start := avail.Min()
		cur := 1
		last := start
		for off := 1; off < n; off++ {
			v := (start + off) % n
			if avail.Contains(v) && graph.CircDist(last, v, n) >= c && graph.CircDist(v, start, n) >= c {
				cur++
				last = v
			}
		}
		return cur
	}

	type acc struct {
		ratio   float64
		optimal int
	}
	var single, paper acc
	count := 0
	for t := 0; t < trials; t++ {
		avail := bitset.New(n)
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.5 {
				avail.Add(v)
			}
		}
		if avail.Empty() {
			continue
		}
		count++
		opt := graph.IndependenceNumber(p.ConflictGraph(), avail)
		s := singleStart(avail)
		g := scheme.Decode(avail).Len()
		single.ratio += float64(s) / float64(opt)
		paper.ratio += float64(g) / float64(opt)
		if s == opt {
			single.optimal++
		}
		if g == opt {
			paper.optimal++
		}
	}
	if count == 0 {
		return nil, nil, fmt.Errorf("experiments: no non-empty availability sets sampled")
	}
	rows := []DecoderQualityRow{
		{"single-start greedy", single.ratio / float64(count), float64(single.optimal) / float64(count)},
		{"paper multi-start (Alg. 2)", paper.ratio / float64(count), float64(paper.optimal) / float64(count)},
	}
	tab := trace.NewTable(
		fmt.Sprintf("Ablation: decoder quality on CR(%d,%d), %d random W'", n, c, count),
		"decoder", "mean_alpha_ratio", "optimal_fraction")
	for _, r := range rows {
		tab.AddRow(r.Decoder, r.MeanAlphaRatio, r.OptimalFraction)
	}
	return rows, tab, nil
}

func maxIntLocal(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// HRStructureRow is one (g, c1) cell of the HR structure sweep.
type HRStructureRow struct {
	G, N0, C1, C2 int
	// ExpectedRecovery is E[recovered fraction] at the sweep's w
	// (exact enumeration via the analysis package).
	ExpectedRecovery float64
}

// HRStructure sweeps every valid HR(n, c1, c-c1) with every divisor group
// count g, reporting the exact expected recovery at w available workers —
// the full design space the paper's Fig. 13 samples one slice of (g=2).
// Larger c1 (more FR-like groups) and larger n0 both trade flexibility for
// recovery; the table makes the whole trade-off surface visible.
func HRStructure(n, c, w int, seed int64) ([]HRStructureRow, *trace.Table, error) {
	if n <= 0 || c <= 0 || w <= 0 || w > n {
		return nil, nil, fmt.Errorf("experiments: invalid HR structure sweep n=%d c=%d w=%d", n, c, w)
	}
	var rows []HRStructureRow
	for g := 1; g <= n; g++ {
		if n%g != 0 {
			continue
		}
		for c1 := 0; c1 <= c; c1++ {
			if c1 == 0 && g != 1 {
				continue // c1=0 is the same CR(n, c) regardless of g; emitted once at g=1
			}
			p, err := placement.HR(n, c1, c-c1, g)
			if err != nil {
				continue // outside the Theorem 6 validity range
			}
			er, err := analysisExpectedRecovery(p, w, seed)
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, HRStructureRow{
				G: g, N0: n / g, C1: c1, C2: c - c1,
				ExpectedRecovery: er,
			})
		}
	}
	tab := trace.NewTable(
		fmt.Sprintf("HR structure sweep: n=%d, c=%d, w=%d — E[recovered fraction] over the valid (g, c1) space", n, c, w),
		"g", "n0", "c1", "c2", "expected_recovery")
	for _, r := range rows {
		tab.AddRow(r.G, r.N0, r.C1, r.C2, r.ExpectedRecovery)
	}
	return rows, tab, nil
}
