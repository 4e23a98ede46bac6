package experiments

import (
	"fmt"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/isgc"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
	"isgc/internal/trace"
)

// HeterogeneityConfig parameterizes the heterogeneous-fleet study: beyond
// the paper's random exponential delays, real fleets have *persistent*
// speed spreads (older machines, noisy neighbors). The study scales worker
// i's compute time by a linear ramp from 1 up to MaxFactor and measures
// how IS-GC's fastest-w gather converts that spread into step-time savings
// while the per-worker arrival distribution skews toward the fast half.
type HeterogeneityConfig struct {
	// N, C fix the CR placement.
	N, C int
	// MaxFactor is the slowest worker's compute multiplier (fleet ramps
	// linearly from 1 to MaxFactor).
	MaxFactor float64
	// Ws lists the fastest-w targets compared.
	Ws []int
	// Steps per run, Trials averaged.
	Steps, Trials int
	// Compute, Upload, DelayMean parameterize the simulated step.
	Compute, Upload time.Duration
	DelayMean       time.Duration
	// Seed drives everything.
	Seed int64
}

// DefaultHeterogeneity returns an 8-worker fleet with a 3x speed spread.
func DefaultHeterogeneity() HeterogeneityConfig {
	return HeterogeneityConfig{
		N: 8, C: 2,
		MaxFactor: 3.0,
		Ws:        []int{2, 4, 6, 8},
		Steps:     80,
		Trials:    3,
		Compute:   50 * time.Millisecond,
		Upload:    20 * time.Millisecond,
		DelayMean: 100 * time.Millisecond,
		Seed:      23,
	}
}

// HeterogeneityRow is one w-level of the study.
type HeterogeneityRow struct {
	W int
	// StepTime is the mean step time on the heterogeneous fleet.
	StepTime time.Duration
	// HomogeneousStepTime is the same fleet with all factors 1 (baseline).
	HomogeneousStepTime time.Duration
	// Recovered is the mean recovered fraction (heterogeneous fleet).
	Recovered float64
	// SlowestInclusion is the fraction of steps in which the slowest
	// worker's partitions joined ĝ (via itself or replicas).
	SlowestInclusion float64
}

// Heterogeneity runs the study for IS-GC over CR(n, c).
func Heterogeneity(cfg HeterogeneityConfig) ([]HeterogeneityRow, *trace.Table, error) {
	if cfg.N <= 0 || cfg.Trials <= 0 || cfg.Steps <= 0 {
		return nil, nil, fmt.Errorf("experiments: invalid heterogeneity config %+v", cfg)
	}
	data, err := dataset.SyntheticClusters(240, 6, 3, 1.5, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	factors := make([]float64, cfg.N)
	for i := range factors {
		factors[i] = 1 + (cfg.MaxFactor-1)*float64(i)/float64(cfg.N-1)
	}

	run := func(w int, hetero bool, trialSeed int64) (*engine.Result, error) {
		p, err := placement.CR(cfg.N, cfg.C)
		if err != nil {
			return nil, err
		}
		st, err := engine.NewISGC(isgc.New(p, trialSeed))
		if err != nil {
			return nil, err
		}
		ecfg := engine.Config{
			Strategy:            st,
			Model:               mdl,
			Data:                data,
			BatchSize:           4,
			LearningRate:        0.1,
			W:                   w,
			MaxSteps:            cfg.Steps,
			ComputePerPartition: cfg.Compute,
			Upload:              cfg.Upload,
			Profile:             straggler.NewProfile(cfg.N, straggler.Exponential{Mean: cfg.DelayMean}, trialSeed+7),
			Seed:                trialSeed,
		}
		if hetero {
			ecfg.ComputeFactors = factors
		}
		return engine.Train(ecfg)
	}

	var rows []HeterogeneityRow
	for _, w := range cfg.Ws {
		row := HeterogeneityRow{W: w}
		for trial := 0; trial < cfg.Trials; trial++ {
			trialSeed := cfg.Seed + int64(trial)*449
			het, err := run(w, true, trialSeed)
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: heterogeneity w=%d: %w", w, err)
			}
			hom, err := run(w, false, trialSeed)
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: heterogeneity baseline w=%d: %w", w, err)
			}
			row.StepTime += het.Run.MeanStepTime()
			row.HomogeneousStepTime += hom.Run.MeanStepTime()
			row.Recovered += het.Run.MeanRecovered()
			// The slowest worker's own partition is the last one in the
			// ramp; inclusion comes from the recorded partition sets.
			row.SlowestInclusion += het.Run.PartitionInclusion(cfg.N)[cfg.N-1]
		}
		inv := 1 / float64(cfg.Trials)
		row.StepTime = time.Duration(float64(row.StepTime) * inv)
		row.HomogeneousStepTime = time.Duration(float64(row.HomogeneousStepTime) * inv)
		row.Recovered *= inv
		row.SlowestInclusion *= inv
		rows = append(rows, row)
	}
	tab := trace.NewTable(
		fmt.Sprintf("Heterogeneous fleet: CR(%d,%d), compute ramp 1..%.1fx", cfg.N, cfg.C, cfg.MaxFactor),
		"w", "step_time_hetero", "step_time_homog", "recovered", "slowest_partition_inclusion")
	for _, r := range rows {
		tab.AddRow(r.W, r.StepTime, r.HomogeneousStepTime, r.Recovered, r.SlowestInclusion)
	}
	return rows, tab, nil
}
