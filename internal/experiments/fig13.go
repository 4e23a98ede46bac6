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

// Fig13Config parameterizes the HR trade-off study of Fig. 13:
// HR(8, c1, 4-c1) with c = 4, g = 2 and n = 8 workers; c1 = 0 is CR(8, 4),
// c1 ∈ {3, 4} is FR-equivalent.
type Fig13Config struct {
	// N, C, G fix the HR family (paper: 8, 4, 2).
	N, C, G int
	// C1s lists the c1 values swept (paper: 0..3).
	C1s []int
	// Ws lists the fastest-w values for the recovery panel (a).
	Ws []int
	// LossW is the w used for the loss-curve panel (b) (paper: 2).
	LossW int
	// LossSteps is the number of steps recorded for panel (b).
	LossSteps int
	// Dataset/optimizer knobs, as in Fig12Config.
	Samples, Features, Classes int
	Separation                 float64
	BatchSize                  int
	LearningRate               float64
	DelayMean                  time.Duration
	Trials                     int
	Seed                       int64
}

// DefaultFig13 returns the paper's configuration scaled to the synthetic
// workload.
func DefaultFig13() Fig13Config {
	return Fig13Config{
		N: 8, C: 4, G: 2,
		C1s:       []int{0, 1, 2, 3},
		Ws:        []int{2, 4, 6},
		LossW:     2,
		LossSteps: 150,
		Samples:   240, Features: 6, Classes: 3, Separation: 1.0,
		BatchSize:    2,
		LearningRate: 0.2,
		DelayMean:    500 * time.Millisecond,
		Trials:       3,
		Seed:         11,
	}
}

// Fig13Row is one (c1, w) recovery point of panel (a).
type Fig13Row struct {
	C1        int
	W         int
	Recovered float64
}

// Fig13LossCurve is panel (b): the loss series at w = LossW for one c1.
type Fig13LossCurve struct {
	C1     int
	Losses []float64
}

// hrStrategy builds the IS-GC strategy for HR(n, c1, c-c1) — with the CR
// degenerate case at c1 = 0 (placement.HR already collapses it).
func hrStrategy(n, c1, c, g int, seed int64) (engine.Strategy, error) {
	p, err := placement.HR(n, c1, c-c1, g)
	if err != nil {
		return nil, err
	}
	return engine.NewISGC(isgc.New(p, seed))
}

// Fig13 reproduces both panels: recovery vs c1 (a) and training-loss curves
// at w = LossW (b).
func Fig13(cfg Fig13Config) ([]Fig13Row, []Fig13LossCurve, []*trace.Table, error) {
	if cfg.N <= 0 || cfg.Trials <= 0 || len(cfg.C1s) == 0 {
		return nil, nil, nil, fmt.Errorf("experiments: invalid Fig13 config %+v", cfg)
	}
	data, err := dataset.SyntheticClusters(cfg.Samples, cfg.Features, cfg.Classes, cfg.Separation, cfg.Seed)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("experiments: %w", err)
	}
	mdl := model.SoftmaxRegression{Features: cfg.Features, Classes: cfg.Classes}

	train := func(c1, w, steps int, trialSeed int64) (*engine.Result, error) {
		st, err := hrStrategy(cfg.N, c1, cfg.C, cfg.G, trialSeed)
		if err != nil {
			return nil, err
		}
		return engine.Train(engine.Config{
			Strategy:     st,
			Model:        mdl,
			Data:         data,
			BatchSize:    cfg.BatchSize,
			LearningRate: cfg.LearningRate,
			W:            w,
			MaxSteps:     steps,
			Profile:      straggler.NewProfile(cfg.N, straggler.Exponential{Mean: cfg.DelayMean}, trialSeed+900),
			// Shared across c1 values within a trial so the sweep is a
			// controlled comparison (paper methodology).
			Seed: trialSeed,
		})
	}

	// Panel (a): recovery vs c1 for each w.
	var rows []Fig13Row
	for _, c1 := range cfg.C1s {
		for _, w := range cfg.Ws {
			sum := 0.0
			for trial := 0; trial < cfg.Trials; trial++ {
				res, err := train(c1, w, 60, cfg.Seed+int64(trial)*211)
				if err != nil {
					return nil, nil, nil, fmt.Errorf("experiments: fig13 c1=%d w=%d: %w", c1, w, err)
				}
				sum += res.Run.MeanRecovered()
			}
			rows = append(rows, Fig13Row{C1: c1, W: w, Recovered: sum / float64(cfg.Trials)})
		}
	}

	// Panel (b): loss curves at w = LossW (single trial per c1; the curves
	// share seeds so they are directly comparable, as in the paper).
	var curves []Fig13LossCurve
	for _, c1 := range cfg.C1s {
		res, err := train(c1, cfg.LossW, cfg.LossSteps, cfg.Seed)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("experiments: fig13 loss c1=%d: %w", c1, err)
		}
		curves = append(curves, Fig13LossCurve{C1: c1, Losses: res.Run.Losses()})
	}

	ta := trace.NewTable(
		fmt.Sprintf("Fig. 13(a): recovered fraction vs c1 for HR(%d, c1, %d-c1), g=%d", cfg.N, cfg.C, cfg.G),
		"c1", "w", "recovered_fraction")
	for _, r := range rows {
		ta.AddRow(r.C1, r.W, r.Recovered)
	}
	tb := trace.NewTable(
		fmt.Sprintf("Fig. 13(b): training loss at w=%d (every 10th step)", cfg.LossW),
		append([]string{"step"}, c1Headers(cfg.C1s)...)...)
	for s := 0; s < cfg.LossSteps; s += 10 {
		cells := make([]interface{}, 0, len(curves)+1)
		cells = append(cells, s)
		for _, c := range curves {
			if s < len(c.Losses) {
				cells = append(cells, c.Losses[s])
			} else {
				cells = append(cells, "-")
			}
		}
		tb.AddRow(cells...)
	}
	return rows, curves, []*trace.Table{ta, tb}, nil
}

func c1Headers(c1s []int) []string {
	out := make([]string, len(c1s))
	for i, c1 := range c1s {
		out[i] = fmt.Sprintf("loss(c1=%d)", c1)
	}
	return out
}

// FindFig13Row returns the row for (c1, w), or nil.
func FindFig13Row(rows []Fig13Row, c1, w int) *Fig13Row {
	for i := range rows {
		if rows[i].C1 == c1 && rows[i].W == w {
			return &rows[i]
		}
	}
	return nil
}
