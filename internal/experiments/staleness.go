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

// StalenessConfig parameterizes the bounded-staleness convergence sweep:
// the Fig. 12 training setup (IS-SGD and IS-GC-CR under homogeneous
// exponential straggling) re-run with the pipelined engine's Staleness
// knob, so the k = 0 rows ARE the synchronous Fig. 12 points and the
// k > 0 rows show what folding k-stale gradients in as exact corrections
// buys in wall-clock time and costs in steps to the threshold.
type StalenessConfig struct {
	// N is the worker count and C the partitions per worker (IS-GC-CR
	// rows; IS-SGD keeps every worker on its own partition).
	N, C int
	// Samples, Features, Classes, Separation parameterize the synthetic
	// classification dataset (shared with Fig12Config).
	Samples, Features, Classes int
	Separation                 float64
	// BatchSize and LearningRate configure SGD.
	BatchSize    int
	LearningRate float64
	// LossThreshold is the training-loss stopping criterion.
	LossThreshold float64
	// MaxSteps caps each run.
	MaxSteps int
	// W is the synchronous wait target; staleness k waits for
	// max(1, W−k) workers and folds the rest in late.
	W int
	// Ks lists the staleness bounds to sweep; include 0 for the
	// synchronous baseline.
	Ks []int
	// DelayMean is the exponential straggler delay mean applied to every
	// worker, and Compute/Upload the simulated step-time parameters.
	DelayMean       time.Duration
	Compute, Upload time.Duration
	// Trials is the number of independent runs averaged per point.
	Trials int
	// Seed drives everything.
	Seed int64
}

// DefaultStaleness returns a sweep over k = 0, 1, 2 at w = 3 under the
// DefaultFig12 workload, finishing in a few seconds.
func DefaultStaleness() StalenessConfig {
	f := DefaultFig12()
	return StalenessConfig{
		N: f.N, C: f.C,
		Samples: f.Samples, Features: f.Features, Classes: f.Classes, Separation: f.Separation,
		BatchSize:     f.BatchSize,
		LearningRate:  f.LearningRate,
		LossThreshold: f.LossThreshold,
		MaxSteps:      f.MaxSteps,
		W:             3,
		Ks:            []int{0, 1, 2},
		DelayMean:     f.DelayMean,
		Compute:       f.Compute,
		Upload:        f.Upload,
		Trials:        f.Trials,
		Seed:          f.Seed,
	}
}

// StalenessRow is one (scheme, k) point of the sweep.
type StalenessRow struct {
	Scheme string
	// K is the staleness bound and Wait the resulting per-step wait
	// target max(1, W−K).
	K, Wait int
	// Recovered is the mean recovered fraction counted at gather time
	// (folds land later and are not in it).
	Recovered float64
	// FoldedPerStep is the mean number of late gradients folded in per
	// step (0 for the k = 0 baseline by construction).
	FoldedPerStep float64
	// Steps is the mean step count to reach the loss threshold.
	Steps float64
	// StepTime and TotalTime are the mean simulated per-step and total
	// training times.
	StepTime, TotalTime time.Duration
	// Converged reports whether every trial reached the threshold.
	Converged bool
}

// Staleness runs the sweep. Within a trial every (scheme, k) point shares
// the seed, so the k = 0 row is bit-identical to the synchronous engine
// under the same config and the k > 0 rows differ only through the
// reduced wait target and the fold corrections.
func Staleness(cfg StalenessConfig) ([]StalenessRow, *trace.Table, error) {
	if cfg.N <= 0 || cfg.Trials <= 0 || cfg.W <= 0 || len(cfg.Ks) == 0 {
		return nil, nil, fmt.Errorf("experiments: invalid Staleness config %+v", cfg)
	}
	data, err := dataset.SyntheticClusters(cfg.Samples, cfg.Features, cfg.Classes, cfg.Separation, cfg.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %w", err)
	}
	mdl := model.SoftmaxRegression{Features: cfg.Features, Classes: cfg.Classes}

	type variant struct {
		name string
		make func(trialSeed int64) (engine.Strategy, error)
	}
	variants := []variant{
		{"IS-SGD", func(int64) (engine.Strategy, error) { return engine.NewISSGD(cfg.N) }},
		{"IS-GC-CR", func(s int64) (engine.Strategy, error) {
			p, err := placement.CR(cfg.N, cfg.C)
			if err != nil {
				return nil, err
			}
			return engine.NewISGC(isgc.New(p, s))
		}},
	}

	var rows []StalenessRow
	for _, v := range variants {
		for _, k := range cfg.Ks {
			wait := cfg.W - k
			if wait < 1 {
				wait = 1
			}
			row := StalenessRow{Scheme: v.name, K: k, Wait: wait, Converged: true}
			for trial := 0; trial < cfg.Trials; trial++ {
				trialSeed := cfg.Seed + int64(trial)*1009
				st, err := v.make(trialSeed)
				if err != nil {
					return nil, nil, fmt.Errorf("experiments: %s: %w", v.name, err)
				}
				res, err := engine.Train(engine.Config{
					Strategy:            st,
					Model:               mdl,
					Data:                data,
					BatchSize:           cfg.BatchSize,
					LearningRate:        cfg.LearningRate,
					W:                   cfg.W,
					Staleness:           k,
					MaxSteps:            cfg.MaxSteps,
					LossThreshold:       cfg.LossThreshold,
					ComputePerPartition: cfg.Compute,
					Upload:              cfg.Upload,
					Profile:             straggler.NewProfile(cfg.N, straggler.Exponential{Mean: cfg.DelayMean}, trialSeed+500),
					Seed:                trialSeed,
				})
				if err != nil {
					return nil, nil, fmt.Errorf("experiments: %s k=%d: %w", v.name, k, err)
				}
				steps := res.Run.Steps()
				row.Recovered += res.Run.MeanRecovered()
				if steps > 0 {
					row.FoldedPerStep += float64(res.Run.TotalFolded()) / float64(steps)
				}
				row.Steps += float64(res.StepsToThreshold)
				row.StepTime += res.Run.MeanStepTime()
				row.TotalTime += res.Run.TotalTime()
				row.Converged = row.Converged && res.Converged
			}
			inv := 1 / float64(cfg.Trials)
			row.Recovered *= inv
			row.FoldedPerStep *= inv
			row.Steps *= inv
			row.StepTime = time.Duration(float64(row.StepTime) * inv)
			row.TotalTime = time.Duration(float64(row.TotalTime) * inv)
			rows = append(rows, row)
		}
	}

	tab := trace.NewTable(
		fmt.Sprintf("Bounded staleness vs the Fig. 12 baseline (n=%d, c=%d, w=%d, threshold=%v)",
			cfg.N, cfg.C, cfg.W, cfg.LossThreshold),
		"scheme", "k", "wait", "recovered", "folded/step", "steps", "avg_step_time", "total_time", "converged")
	for _, r := range rows {
		tab.AddRow(r.Scheme, r.K, r.Wait, r.Recovered, r.FoldedPerStep, r.Steps, r.StepTime, r.TotalTime, r.Converged)
	}
	return rows, tab, nil
}
