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

// BiasConfig parameterizes the bias study behind the paper's Sec. I
// motivation: "if some worker experiences severe or consistently lower
// performance, IS-SGD will still make the training biased toward the other
// dataset partitions."
//
// Setup: the dataset is sorted by class before partitioning (so each
// partition is class-skewed), worker 0 is an enduring straggler (pinned
// Factor× slow), and the master waits for w workers. Under IS-SGD,
// partition 0 lives only on worker 0 and its class is essentially never
// trained; under IS-GC the partition is replicated on worker 0's
// group-mate and keeps contributing.
type BiasConfig struct {
	// N, C fix the FR placement.
	N, C int
	// W is the per-step wait count.
	W int
	// Factor is the enduring straggler's slowdown.
	Factor float64
	// Steps per run and trial count.
	Steps, Trials int
	// DelayMean is the baseline exponential delay.
	DelayMean time.Duration
	// Seed drives everything.
	Seed int64
}

// DefaultBias returns the n=4, c=2 bias study.
func DefaultBias() BiasConfig {
	return BiasConfig{
		N: 4, C: 2, W: 2,
		Factor:    50,
		Steps:     150,
		Trials:    3,
		DelayMean: 200 * time.Millisecond,
		Seed:      17,
	}
}

// BiasRow summarizes one scheme in the bias study.
type BiasRow struct {
	Scheme string
	// Partition0Inclusion is the fraction of steps in which the straggler
	// partition's gradients joined ĝ.
	Partition0Inclusion float64
	// FinalLoss is the loss over the full (unbiased) dataset.
	FinalLoss float64
	// MeanRecovered is the overall recovered fraction.
	MeanRecovered float64
}

// Bias runs the study for IS-SGD and IS-GC-FR and returns the per-scheme
// summary.
func Bias(cfg BiasConfig) ([]BiasRow, *trace.Table, error) {
	if cfg.N <= 0 || cfg.Trials <= 0 || cfg.Steps <= 0 {
		return nil, nil, fmt.Errorf("experiments: invalid bias config %+v", cfg)
	}
	base, err := dataset.SyntheticClusters(240, 6, cfg.N, 2.5, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	// Class-sort so partition d ≈ class d: losing a partition loses a class.
	data := base.SortByLabel()
	mdl := model.SoftmaxRegression{Features: 6, Classes: cfg.N}

	type variantFn func(trialSeed int64) (engine.Strategy, error)
	variants := []struct {
		name string
		mk   variantFn
	}{
		{"IS-SGD", func(int64) (engine.Strategy, error) { return engine.NewISSGD(cfg.N) }},
		{"IS-GC-FR", func(s int64) (engine.Strategy, error) {
			p, err := placement.FR(cfg.N, cfg.C)
			if err != nil {
				return nil, err
			}
			return engine.NewISGC(isgc.New(p, s))
		}},
	}

	var rows []BiasRow
	for _, v := range variants {
		row := BiasRow{Scheme: v.name}
		for trial := 0; trial < cfg.Trials; trial++ {
			trialSeed := cfg.Seed + int64(trial)*331
			st, err := v.mk(trialSeed)
			if err != nil {
				return nil, nil, err
			}
			prof := straggler.NewProfile(cfg.N, straggler.Exponential{Mean: cfg.DelayMean}, trialSeed+3).
				WithEnduringStraggler(0, cfg.Factor, trialSeed+4)
			res, err := engine.Train(engine.Config{
				Strategy:     st,
				Model:        mdl,
				Data:         data,
				BatchSize:    4,
				LearningRate: 0.15,
				W:            cfg.W,
				MaxSteps:     cfg.Steps,
				Profile:      prof,
				Seed:         trialSeed,
			})
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: bias %s: %w", v.name, err)
			}
			row.FinalLoss += res.Run.FinalLoss()
			row.MeanRecovered += res.Run.MeanRecovered()
			row.Partition0Inclusion += res.Run.PartitionInclusion(cfg.N)[0]
		}
		inv := 1 / float64(cfg.Trials)
		row.FinalLoss *= inv
		row.MeanRecovered *= inv
		row.Partition0Inclusion *= inv
		rows = append(rows, row)
	}

	tab := trace.NewTable(
		fmt.Sprintf("Bias study: class-skewed partitions, worker 0 pinned %.0fx slow, w=%d", cfg.Factor, cfg.W),
		"scheme", "partition0_inclusion", "mean_recovered", "final_full_loss")
	for _, r := range rows {
		tab.AddRow(r.Scheme, r.Partition0Inclusion, r.MeanRecovered, r.FinalLoss)
	}
	return rows, tab, nil
}
