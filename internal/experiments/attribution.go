package experiments

import (
	"fmt"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/isgc"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
	"isgc/internal/trace"
)

// AttributionConfig parameterizes the straggler-attribution demonstration:
// an IS-GC run over a partially straggling fleet whose per-worker arrival
// and compute times are attributed, answering "who was slow, and was it
// compute or delivery?" — the operator-facing view the cluster master also
// prints after a real run.
type AttributionConfig struct {
	// N, C fix the CR placement; W is the fastest-w gather target.
	N, C, W int
	// Steps is the number of simulated steps.
	Steps int
	// DelayMean is the exponential delay mean of the straggling workers.
	DelayMean time.Duration
	// SlowCount is how many workers straggle (workers 0..SlowCount-1).
	SlowCount int
	// Compute and Upload parameterize the simulated step time.
	Compute time.Duration
	Upload  time.Duration
	// Dataset/optimizer knobs.
	Samples, Features int
	BatchSize         int
	LearningRate      float64
	Seed              int64
	// Events, when non-nil, receives the run's structured events.
	Events *events.Log
}

// DefaultAttribution returns a configuration sized to finish in seconds:
// n=8 CR(8,2) with 3 straggling workers — small enough to eyeball the
// table, large enough that chosen-vs-ignored splits are visible.
func DefaultAttribution() AttributionConfig {
	return AttributionConfig{
		N: 8, C: 2, W: 5,
		Steps:     120,
		DelayMean: 400 * time.Millisecond,
		SlowCount: 3,
		Compute:   30 * time.Millisecond,
		Upload:    10 * time.Millisecond,
		Samples:   160, Features: 6,
		BatchSize:    4,
		LearningRate: 0.1,
		Seed:         17,
	}
}

// Attribution runs IS-GC under partial straggling with attribution enabled
// and returns the per-worker report plus its rendered table. The slow
// workers (low ids) should show high arrival percentiles and low
// chosen counts; the attribution separates their delivery delay from the
// (uniform) compute time.
func Attribution(cfg AttributionConfig) (trace.AttributionReport, *trace.Table, error) {
	if cfg.N <= 0 || cfg.C <= 0 || cfg.Steps <= 0 || cfg.W <= 0 {
		return trace.AttributionReport{}, nil, fmt.Errorf("experiments: invalid Attribution config %+v", cfg)
	}
	p, err := placement.CR(cfg.N, cfg.C)
	if err != nil {
		return trace.AttributionReport{}, nil, fmt.Errorf("experiments: %w", err)
	}
	st, err := engine.NewISGC(isgc.New(p, cfg.Seed))
	if err != nil {
		return trace.AttributionReport{}, nil, fmt.Errorf("experiments: %w", err)
	}
	data, _, err := dataset.SyntheticLinear(cfg.Samples, cfg.Features, 0.1, cfg.Seed)
	if err != nil {
		return trace.AttributionReport{}, nil, fmt.Errorf("experiments: %w", err)
	}
	attr := trace.NewAttribution(cfg.N)
	_, err = engine.Train(engine.Config{
		Strategy:            st,
		Model:               model.LinearRegression{Features: cfg.Features},
		Data:                data,
		BatchSize:           cfg.BatchSize,
		LearningRate:        cfg.LearningRate,
		W:                   cfg.W,
		MaxSteps:            cfg.Steps,
		ComputePerPartition: cfg.Compute,
		Upload:              cfg.Upload,
		Profile:             straggler.PartialProfile(cfg.N, cfg.SlowCount, straggler.Exponential{Mean: cfg.DelayMean}, cfg.Seed+900),
		Seed:                cfg.Seed,
		Events:              cfg.Events,
		Attribution:         attr,
	})
	if err != nil {
		return trace.AttributionReport{}, nil, fmt.Errorf("experiments: attribution: %w", err)
	}
	rep := attr.Report()
	return rep, rep.Table(), nil
}
