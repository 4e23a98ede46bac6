package main

import (
	"fmt"
	"math"

	"isgc/internal/cluster"
	"isgc/internal/engine"
	"isgc/internal/gc"
	"isgc/internal/placement"
)

// The Fig. 12 baselines, run on straggler-mlp's shape beside the primary
// arm with the same seeds: the single-scheme comparison the paper plots.
// Off-contract and not gated.

func plainArm(name string, build func(n int) (engine.Strategy, error)) arm {
	return arm{name, func(n, _ int, _ int64) (engine.Strategy, encoderFor, *placement.Placement, error) {
		st, err := build(n)
		return st, sumEncoders, nil, err
	}}
}

var fig12Arms = []arm{
	primaryArm,
	plainArm("Sync-SGD", engine.NewSyncSGD),
	{"GC-CR", func(n, c int, seed int64) (engine.Strategy, encoderFor, *placement.Placement, error) {
		code, err := gc.NewCR(n, c, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		st, err := engine.NewClassicGC(code)
		// Worker i's fixed coefficients over its own partitions.
		enc := func(i int) func([][]float64) ([]float64, error) {
			pids := code.Placement().Partitions(i)
			coeffs := make([]float64, len(pids))
			for j, d := range pids {
				coeffs[j] = code.B().At(i, d)
			}
			return cluster.LinearEncoder(coeffs)
		}
		return st, enc, nil, err
	}},
	plainArm("IS-SGD", engine.NewISSGD),
	isgcArm("IS-GC-FR", func(n, c int) (*placement.Placement, error) { return placement.FR(n, c) }),
	isgcArm("IS-GC-HR", func(n, c int) (*placement.Placement, error) { return placement.HR(n, c-1, 1, n/c) }),
}

const armSteps = 300

func runArms(which string, o *options) error {
	if which != "fig12" {
		return fmt.Errorf("unknown -arms %q (have fig12)", which)
	}
	sp := *tcpSpecs[0]
	sp.minMeasured, sp.lossStep = armSteps-sp.warmup, armSteps
	in, err := sp.inputs(o.seed)
	if err != nil {
		return err
	}
	fmt.Printf("%s, %d steps per arm, seed=%d, w=%d, loss threshold %g\n", sp.name, armSteps, o.seed, sp.w, sp.lossThreshold)
	fmt.Printf("  %-10s %12s %12s %12s %14s %10s %10s\n", "arm", "step_p50_ms", "step_p95_ms", "steps_per_s", "time_to_loss_s", "final_loss", "recovered")
	for _, a := range fig12Arms {
		run, err := runTCP(&sp, a, in, o.seed, math.MaxInt32, 0, false, o.outDir)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		res := newResult()
		m := endToEndMetrics(run.rec, sp.n, sp.batch, run.res.Run.Losses(), sp.lossStep, sp.lossThreshold, res)
		ttl := "n/a"
		if v, ok := m["time_to_loss_s"]; ok {
			ttl = fmt.Sprintf("%.4f", v)
		}
		fmt.Printf("  %-10s %12.3f %12.3f %12.2f %14s %10.4f %10.4f\n", a.name, m["step_p50_ms"], m["step_p95_ms"],
			m["steps_per_s"], ttl, m["final_loss"], m["recovered_frac_mean"])
	}
	return nil
}
