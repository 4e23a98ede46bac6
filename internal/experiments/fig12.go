package experiments

import (
	"fmt"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/gc"
	"isgc/internal/isgc"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
	"isgc/internal/trace"
)

// Fig12Config parameterizes the end-to-end training comparison of Fig. 12:
// "ResNet-18 on CIFAR-10" with n = 4 workers, c = 2, sweeping the number of
// waited-for workers w. Our workload substitute is softmax regression on
// Gaussian clusters (see DESIGN.md).
type Fig12Config struct {
	// N is the worker count (paper: 4) and C the partitions per worker
	// (paper: 2).
	N, C int
	// Samples, Features, Classes, Separation parameterize the synthetic
	// classification dataset.
	Samples, Features, Classes int
	Separation                 float64
	// BatchSize and LearningRate configure SGD (paper: 128 and 0.006 for
	// ResNet-18; ours are scaled to the synthetic task).
	BatchSize    int
	LearningRate float64
	// LossThreshold is the training-loss stopping criterion.
	LossThreshold float64
	// MaxSteps caps each run.
	MaxSteps int
	// DelayMean is the exponential straggler delay mean applied to every
	// worker (homogeneous straggling, as in the cloud experiment).
	DelayMean time.Duration
	// Compute and Upload parameterize the simulated step time.
	Compute, Upload time.Duration
	// Trials is the number of independent runs averaged per point
	// (paper: 10).
	Trials int
	// Seed drives everything.
	Seed int64
	// Workload selects the model: "softmax" (default) or "mlp" (one
	// hidden layer — the deepest stand-in for the paper's ResNet-18,
	// used as a robustness check that the figure's shape is not an
	// artifact of the convex workload).
	Workload string
	// Hidden is the MLP hidden width (Workload == "mlp"; default 8).
	Hidden int
}

// DefaultFig12 returns a configuration that reproduces the figure's shape
// in a few seconds.
func DefaultFig12() Fig12Config {
	return Fig12Config{
		N: 4, C: 2,
		Samples: 240, Features: 6, Classes: 3, Separation: 1.0,
		BatchSize:     1,
		LearningRate:  0.2,
		LossThreshold: 0.30,
		MaxSteps:      3000,
		DelayMean:     400 * time.Millisecond,
		Compute:       30 * time.Millisecond,
		Upload:        250 * time.Millisecond,
		Trials:        5,
		Seed:          7,
	}
}

// Fig12Row is one (scheme, w) point across the four panels of Fig. 12.
type Fig12Row struct {
	Scheme string
	W      int
	// Recovered is panel (a): mean fraction of samples in ĝ.
	Recovered float64
	// Steps is panel (b): mean steps to reach the loss threshold.
	Steps float64
	// StepTime is panel (c): mean time per step.
	StepTime time.Duration
	// TotalTime is panel (d): mean total training time.
	TotalTime time.Duration
	// Converged reports whether every trial reached the threshold.
	Converged bool
}

// Fig12 reproduces all four panels. Flexible schemes (IS-SGD, IS-GC-FR,
// IS-GC-CR) sweep w = 1..n; Sync-SGD and classic GC are fixed points
// (w = n and w = n-c+1).
func Fig12(cfg Fig12Config) ([]Fig12Row, []*trace.Table, error) {
	if cfg.N <= 0 || cfg.Trials <= 0 {
		return nil, nil, fmt.Errorf("experiments: invalid Fig12 config %+v", cfg)
	}
	data, err := dataset.SyntheticClusters(cfg.Samples, cfg.Features, cfg.Classes, cfg.Separation, cfg.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %w", err)
	}
	var mdl model.Model
	switch cfg.Workload {
	case "", "softmax":
		mdl = model.SoftmaxRegression{Features: cfg.Features, Classes: cfg.Classes}
	case "mlp":
		hidden := cfg.Hidden
		if hidden <= 0 {
			hidden = 8
		}
		mdl = model.MLP{Features: cfg.Features, Hidden: hidden, Classes: cfg.Classes}
	default:
		return nil, nil, fmt.Errorf("experiments: unknown workload %q (want softmax or mlp)", cfg.Workload)
	}

	type variant struct {
		name string
		make func(trialSeed int64) (engine.Strategy, error)
		ws   []int
	}
	sweep := make([]int, cfg.N)
	for i := range sweep {
		sweep[i] = i + 1
	}
	variants := []variant{
		{"IS-SGD", func(int64) (engine.Strategy, error) { return engine.NewISSGD(cfg.N) }, sweep},
		{"IS-GC-FR", func(s int64) (engine.Strategy, error) {
			p, err := placement.FR(cfg.N, cfg.C)
			if err != nil {
				return nil, err
			}
			return engine.NewISGC(isgc.New(p, s))
		}, sweep},
		{"IS-GC-CR", func(s int64) (engine.Strategy, error) {
			p, err := placement.CR(cfg.N, cfg.C)
			if err != nil {
				return nil, err
			}
			return engine.NewISGC(isgc.New(p, s))
		}, sweep},
		{"Sync-SGD", func(int64) (engine.Strategy, error) { return engine.NewSyncSGD(cfg.N) }, []int{cfg.N}},
		{"GC-CR", func(s int64) (engine.Strategy, error) {
			code, err := gc.NewCR(cfg.N, cfg.C, s)
			if err != nil {
				return nil, err
			}
			return engine.NewClassicGC(code)
		}, []int{cfg.N - cfg.C + 1}},
	}

	var rows []Fig12Row
	for _, v := range variants {
		for _, w := range v.ws {
			row := Fig12Row{Scheme: v.name, W: w, Converged: true}
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
					W:                   w,
					MaxSteps:            cfg.MaxSteps,
					LossThreshold:       cfg.LossThreshold,
					ComputePerPartition: cfg.Compute,
					Upload:              cfg.Upload,
					Profile:             straggler.NewProfile(cfg.N, straggler.Exponential{Mean: cfg.DelayMean}, trialSeed+500),
					// The seed is shared across schemes within a trial, so
					// every scheme starts from the same parameters and sees
					// the same batches (the paper's controlled-seed
					// methodology), while trials still average over batch
					// realizations.
					Seed: trialSeed,
				})
				if err != nil {
					return nil, nil, fmt.Errorf("experiments: %s w=%d: %w", v.name, w, err)
				}
				row.Recovered += res.Run.MeanRecovered()
				row.Steps += float64(res.StepsToThreshold)
				row.StepTime += res.Run.MeanStepTime()
				row.TotalTime += res.Run.TotalTime()
				row.Converged = row.Converged && res.Converged
			}
			inv := 1 / float64(cfg.Trials)
			row.Recovered *= inv
			row.Steps *= inv
			row.StepTime = time.Duration(float64(row.StepTime) * inv)
			row.TotalTime = time.Duration(float64(row.TotalTime) * inv)
			rows = append(rows, row)
		}
	}

	tables := fig12Tables(cfg, rows)
	return rows, tables, nil
}

func fig12Tables(cfg Fig12Config, rows []Fig12Row) []*trace.Table {
	mk := func(panel, metric string) *trace.Table {
		return trace.NewTable(
			fmt.Sprintf("Fig. 12(%s): %s (n=%d, c=%d, threshold=%v)", panel, metric, cfg.N, cfg.C, cfg.LossThreshold),
			"scheme", "w", metric)
	}
	ta := mk("a", "recovered_fraction")
	tb := mk("b", "steps_to_threshold")
	tc := mk("c", "avg_step_time")
	td := mk("d", "total_training_time")
	for _, r := range rows {
		ta.AddRow(r.Scheme, r.W, r.Recovered)
		tb.AddRow(r.Scheme, r.W, r.Steps)
		tc.AddRow(r.Scheme, r.W, r.StepTime)
		td.AddRow(r.Scheme, r.W, r.TotalTime)
	}
	return []*trace.Table{ta, tb, tc, td}
}

// FindRow returns the row for (scheme, w), or nil.
func FindRow(rows []Fig12Row, scheme string, w int) *Fig12Row {
	for i := range rows {
		if rows[i].Scheme == scheme && rows[i].W == w {
			return &rows[i]
		}
	}
	return nil
}
