package main

import (
	"fmt"
	"math"
	"time"

	"isgc/internal/engine"
	"isgc/internal/model"
)

// warmupSteps are excluded from every step statistic on every workload.
const warmupSteps = 10

// The three TCP workloads. Shapes are sized so that a 10 s window on two
// cores holds well over 300 measured steps; README.md records where they
// depart from the shapes the issue first proposed and why.
var tcpSpecs = []*tcpSpec{
	{
		// The Fig. 12 regime: fastest-4-of-8 gather under exponential
		// straggler delays; compute, framing and bytes are negligible.
		name: "straggler-mlp", n: 8, c: 2, w: 4,
		model: model.MLP{Features: 32, Hidden: 64, Classes: 10}, sep: 3,
		samples: 1024, batch: 16, lr: 0.02, delayMean: 20 * time.Millisecond,
		warmup: warmupSteps, minMeasured: 300, lossStep: 300, lossThreshold: 1.0,
	},
	{
		// Comm-bound: wait-all gather of 1 MiB gradients with a
		// checkpoint on every 4th step.
		name: "wide-gather", n: 8, c: 2, w: 8,
		model: model.SoftmaxRegression{Features: 2048, Classes: 64}, sep: 4,
		samples: 64, batch: 1, lr: 0.0005, ckptEvery: 4, waitAll: true,
		warmup: warmupSteps, minMeasured: 300, lossStep: 300, lossThreshold: 2.5,
	},
	{
		// Compute-bound: mini-batch gradients on the workers and the
		// full-set loss on the master dominate; transport is light.
		name: "compute-mlp", n: 4, c: 2, w: 4,
		model: model.MLP{Features: 64, Hidden: 128, Classes: 10}, sep: 3,
		samples: 1024, batch: 64, lr: 0.02, waitAll: true,
		warmup: warmupSteps, minMeasured: 300, lossStep: 300, lossThreshold: 1.0,
	},
}

// toy shrinks a TCP workload to smoke-test size: 4 workers, 30 steps, and
// a gradient of at most 64 KiB.
func (sp *tcpSpec) toy() *tcpSpec {
	t := *sp
	t.n, t.w = 4, 4
	if sp.w < sp.n {
		t.w = 2
	}
	if sp.delayMean > 0 {
		t.delayMean = 2 * time.Millisecond
	}
	if m, ok := sp.model.(model.SoftmaxRegression); ok {
		m.Features = 128
		t.model = m
	}
	t.samples = min(sp.samples, 256)
	t.batch = min(sp.batch, 8)
	t.warmup, t.minMeasured, t.lossStep = 5, 25, 25
	t.lossThreshold = math.Inf(1)
	return &t
}

// options is what the command line selects for one workload run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	toy     bool
	outDir  string
	// corruptReference flips one reference parameter so the test can see
	// the engine ≡ cluster check fire.
	corruptReference bool
}

// window splits the measuring time between the passes a run makes: one
// untraced pass, or an untraced and a traced pass of half the time each.
func (o *options) window() time.Duration {
	s := o.seconds
	if o.trace {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

// setupRepeats is how many extra times a workload sets up (and runs one
// step) so that setup_s is a median, not a single sample.
func (o *options) setupRepeats() int {
	if o.toy {
		return 2
	}
	return 50
}

func runTCPWorkload(sp *tcpSpec, o *options) (*result, error) {
	if o.toy {
		sp = sp.toy()
	}
	in, err := sp.inputs(o.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	if o.trace {
		return res, sp.tracedPasses(in, o, res)
	}
	// Half of the extra set-ups run before the measured pass and half after
	// it, so their median does not hang on the host's state in one second.
	var setups []float64
	moreSetups := func() error {
		for i := 0; i < o.setupRepeats()/2; i++ {
			mini, err := runTCP(sp, primaryArm, in, o.seed, 1, 0, false, o.outDir)
			if err != nil {
				return err
			}
			setups = append(setups, mini.setupSeconds())
		}
		return nil
	}
	if err := moreSetups(); err != nil {
		return nil, err
	}
	run, err := runTCP(sp, primaryArm, in, o.seed, math.MaxInt32, o.window(), false, o.outDir)
	if err != nil {
		return nil, err
	}
	if err := moreSetups(); err != nil {
		return nil, err
	}
	e2e := endToEndMetrics(run.rec, sp.n, sp.batch, run.res.Run.Losses(), sp.lossStep, sp.lossThreshold, res)
	e2e["setup_s"] = quantile(append(setups, run.setupSeconds()), 0.5)
	sp.check(run, in, o, res)
	res.set(endToEnd, e2e)
	return res, nil
}

// tracedPasses makes the per-layer numbers: an untraced pass for the
// baseline step rate, then a traced pass with every wrapper, a Timeline and
// the metrics registries attached, each over half the window and a quarter
// of the steps.
func (sp *tcpSpec) tracedPasses(in *tcpInputs, o *options, res *result) error {
	if !o.toy {
		q := *sp
		q.minMeasured /= 4
		sp = &q
	}
	base, err := runTCP(sp, primaryArm, in, o.seed, math.MaxInt32, o.window(), false, o.outDir)
	if err != nil {
		return err
	}
	traced, err := runTCP(sp, primaryArm, in, o.seed, math.MaxInt32, o.window(), true, o.outDir)
	if err != nil {
		return err
	}
	sp.check(traced, in, o, res)
	layers, err := sp.layers(traced, base.rec.stepsPerSecond(), in, o)
	if err != nil {
		return err
	}
	res.samples = len(traced.rec.intervals())
	res.set(perLayer, layers)
	return nil
}

// endToEndMetrics derives every end-to-end metric but setup_s from one
// untraced pass: the recorder's ticks, the recovered-partition count of each
// step (n partitions of batch samples each), and the loss after each step. A
// run too short for final_loss, or one that never reaches the loss
// threshold, is a failed run.
func endToEndMetrics(rec *recorder, n, batch int, losses []float64, lossStep int, threshold float64, res *result) map[string]float64 {
	iv := rec.intervals()
	measured := rec.parts[rec.warmup : rec.warmup+len(iv)]
	frac := 0.0
	for _, p := range rec.parts {
		frac += float64(p) / float64(n)
	}
	m := map[string]float64{
		"steps_per_s": rec.stepsPerSecond(),
		"step_p50_ms": quantile(iv, 0.5) * msPerSec,
		"step_p95_ms": blockMedian(len(iv), func(lo, hi int) float64 { return quantile(iv[lo:hi], 0.95) * msPerSec }),
		"samples_per_s": blockMedian(len(iv), func(lo, hi int) float64 {
			samples := 0
			for _, p := range measured[lo:hi] {
				samples += p * batch
			}
			return float64(samples) / sum(iv[lo:hi])
		}),
		"recovered_frac_mean": frac / float64(len(rec.parts)),
		"alloc_mb_per_step":   float64(rec.alloc1-rec.alloc0) / mb / float64(len(iv)),
	}
	res.samples = len(iv)
	if len(losses) >= lossStep {
		m["final_loss"] = losses[lossStep-1]
	} else {
		res.fail(0, fmt.Sprintf("only %d steps ran, final_loss needs %d", len(losses), lossStep))
	}
	for t, l := range losses {
		if l <= threshold {
			// Step t's loss is known once step t is done: t+1 steps at the
			// run's step rate. Steps are counted, not timed, because the wall
			// time of one stretch of a run is the host's as much as the
			// program's; what the count adds to steps_per_s is how many steps
			// the scheme needs, which is what recovering less would cost.
			m["time_to_loss_s"] = float64(t+1) / m["steps_per_s"]
			return m
		}
	}
	res.fail(0, fmt.Sprintf("loss never reached %.6g (last %.6g)", threshold, losses[len(losses)-1]))
	return m
}

// check applies the workload's correctness checks to one run and counts
// its steps as attempted.
func (sp *tcpSpec) check(run *tcpRun, in *tcpInputs, o *options, res *result) {
	recs := run.res.Run.Records
	res.Attempted += len(recs)
	for _, r := range recs {
		switch {
		case r.Degraded:
			res.fail(1, fmt.Sprintf("step %d degraded", r.Step))
		case math.IsNaN(r.Loss) || math.IsInf(r.Loss, 0):
			res.fail(1, fmt.Sprintf("step %d loss %v", r.Step, r.Loss))
		case r.RecoveredFraction != float64(r.Chosen*sp.c)/float64(sp.n):
			res.fail(1, fmt.Sprintf("step %d recovered %v with %d chosen", r.Step, r.RecoveredFraction, r.Chosen))
		default:
			if lower, _ := run.place.AlphaBounds(r.Available); r.Chosen < lower {
				res.fail(1, fmt.Sprintf("step %d chose %d of %d available, Thm. 10 lower bound %d", r.Step, r.Chosen, r.Available, lower))
			}
		}
	}
	if !sp.waitAll {
		return
	}
	ref, err := sp.reference(primaryArm, in, o.seed, min(len(recs), referenceSteps))
	if err != nil {
		res.fail(len(recs), "reference: "+err.Error())
		return
	}
	if o.corruptReference {
		ref.Params[0] += 1e-3
	}
	res.fail(compareReference(run.res, ref))
}

// referenceTol is the engine ≡ cluster pin's tolerance: the two sum the
// same gradients in a different association.
const referenceTol = 1e-9

// referenceSteps caps the reference replay, which costs as much per step
// as the run it checks. The trajectory is deterministic, so a run that
// leaves the reference's does so within the first steps: every code path of
// a step, checkpoint steps included, has run dozens of times by then.
const referenceSteps = 200

// compareReference counts the steps whose loss differs from the reference
// run's, plus one if the two ran the same number of steps and their final
// parameters differ.
func compareReference(got, ref *engine.Result) (int, string) {
	bad, note := 0, ""
	for i, r := range ref.Run.Records {
		if d := math.Abs(got.Run.Records[i].Loss - r.Loss); !(d <= referenceTol) {
			if bad == 0 {
				note = fmt.Sprintf("step %d loss %v, reference %v", i, got.Run.Records[i].Loss, r.Loss)
			}
			bad++
		}
	}
	if len(got.Run.Records) != len(ref.Run.Records) {
		return bad, note
	}
	for j := range got.Params {
		if d := math.Abs(got.Params[j] - ref.Params[j]); !(d <= referenceTol) {
			if note == "" {
				note = fmt.Sprintf("param %d is %v, reference %v", j, got.Params[j], ref.Params[j])
			}
			return bad + 1, note
		}
	}
	return bad, note
}
