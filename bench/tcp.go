package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"isgc/internal/checkpoint"
	"isgc/internal/cluster"
	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/isgc"
	"isgc/internal/metrics"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
	"isgc/internal/trace"
)

// tcpSpec is the shape of one TCP workload: fleet, model, data, delay and
// checkpoint period. It never names an opt-in mode; the run measures
// whatever the zero-value MasterConfig/WorkerConfig selects.
type tcpSpec struct {
	name    string
	n, c, w int
	model   model.Model
	sep     float64 // distance of each class center from the origin
	samples int
	batch   int
	lr      float64
	// delayMean, when positive, is the mean of the exponential delay every
	// worker sleeps before uploading.
	delayMean time.Duration
	// ckptEvery, when positive, checkpoints to a temp dir at that period.
	ckptEvery int
	// waitAll marks a wait-all workload whose trajectory must equal an
	// in-process engine.Train run with the same seed.
	waitAll bool

	warmup        int
	minMeasured   int
	lossStep      int     // final_loss is the loss after this many steps
	lossThreshold float64 // time_to_loss_s is the wall time to reach it
}

// arm builds the scheme under test: the strategy, each worker's encoder,
// and the IS-GC placement (nil for the baselines, which have no Thm. 10–11
// bounds to check).
type arm struct {
	name  string
	build func(n, c int, seed int64) (engine.Strategy, encoderFor, *placement.Placement, error)
}

// encoderFor returns worker i's WorkerConfig.Encode; encoders own a buffer,
// so every worker needs its own.
type encoderFor = func(worker int) func([][]float64) ([]float64, error)

func sumEncoders(int) func([][]float64) ([]float64, error) { return cluster.SumEncoder() }

func isgcArm(name string, place func(n, c int) (*placement.Placement, error)) arm {
	return arm{name, func(n, c int, seed int64) (engine.Strategy, encoderFor, *placement.Placement, error) {
		p, err := place(n, c)
		if err != nil {
			return nil, nil, nil, err
		}
		st, err := engine.NewISGC(isgc.New(p, seed))
		return st, sumEncoders, p, err
	}}
}

// primaryArm is IS-GC over CR(n, c), the scheme every workload measures.
var primaryArm = isgcArm("IS-GC-CR", func(n, c int) (*placement.Placement, error) { return placement.CR(n, c) })

const dataSeedMask = 0x64617461 // "data"

// tcpInputs are generated from the seed before the set-up clock starts.
type tcpInputs struct {
	data  *dataset.Dataset
	parts []*dataset.Dataset
}

// dataShape is the input and label dimension the model expects.
func dataShape(m model.Model) (features, classes int) {
	switch m := m.(type) {
	case model.MLP:
		return m.Features, m.Classes
	case model.SoftmaxRegression:
		return m.Features, m.Classes
	}
	panic("bench: no data shape for model " + m.String())
}

// inputs draws the training set: class k's samples are sep·e_k plus unit
// Gaussian noise, shuffled. The class centers are the same for every seed —
// only the noise and the order are drawn — so the task is equally hard on
// every seed and the loss curves of different seeds can be compared.
func (sp *tcpSpec) inputs(seed int64) (*tcpInputs, error) {
	features, classes := dataShape(sp.model)
	// Not the bare seed: the model draws its initial parameters from that
	// stream, and data equal to the parameters is fitted before training.
	rng := rand.New(rand.NewSource(seed ^ dataSeedMask))
	samples := make([]dataset.Sample, sp.samples)
	for i := range samples {
		k := i % classes
		x := make([]float64, features)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		x[k] += sp.sep
		samples[i] = dataset.Sample{X: x, Y: float64(k)}
	}
	rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	data, err := dataset.New(samples)
	if err != nil {
		return nil, err
	}
	parts, err := data.Partition(sp.n)
	if err != nil {
		return nil, err
	}
	return &tcpInputs{data, parts}, nil
}

// tcpRun is everything one cluster run leaves behind.
type tcpRun struct {
	rec      *recorder
	res      *engine.Result
	place    *placement.Placement
	start    time.Time     // set-up clock start
	masterUp time.Time     // NewMaster returned
	build    time.Duration // placement + scheme + strategy construction

	// Traced pass only.
	tl      *events.Timeline
	mm      *cluster.MasterMetrics
	wm      []*cluster.WorkerMetrics
	probes  []*workerProbe
	lossLog *callLog
	attr    trace.AttributionReport
	proc    procStats
}

// setupSeconds is the set-up time: clock start to the first step tick,
// minus the first step's gather (worker compute and injected delay, which
// are step work, not set-up). What remains is scheme construction, listen,
// fleet registration, parameter init and the first broadcast.
func (r *tcpRun) setupSeconds() float64 {
	return (r.rec.ticks[0].Sub(r.start) - r.res.Run.Records[0].Elapsed).Seconds()
}

// runTCP runs one master and sp.n workers over loopback TCP, workers as
// goroutines of this process, until maxSteps or the recorder's window ends.
func runTCP(sp *tcpSpec, a arm, in *tcpInputs, seed int64, maxSteps int, window time.Duration, traced bool, tmpDir string) (*tcpRun, error) {
	run := &tcpRun{start: time.Now()}
	st, encoderFor, place, err := a.build(sp.n, sp.c, seed)
	if err != nil {
		return nil, err
	}
	run.place = place
	run.build = time.Since(run.start)
	run.rec = &recorder{warmup: sp.warmup, minMeasured: sp.minMeasured, window: window, traced: traced}
	if sp.delayMean == 0 {
		// A step that waits out an injected sleep takes as long on a fast
		// host as on a slow one; only CPU-bound steps are rescaled.
		run.rec.host = newHostClock()
	}

	cfg := cluster.MasterConfig{
		Addr:         "127.0.0.1:0",
		Strategy:     wrapStrategy(st, run.rec),
		Model:        sp.model,
		Data:         in.data,
		LearningRate: sp.lr,
		W:            sp.w,
		MaxSteps:     maxSteps,
		Seed:         seed,
	}
	if sp.ckptEvery > 0 {
		dir, err := os.MkdirTemp(tmpDir, "ckpt-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		store, err := checkpoint.NewStore(dir, 0)
		if err != nil {
			return nil, err
		}
		cfg.Checkpoint, cfg.CheckpointEvery = store, sp.ckptEvery
	}
	if traced {
		run.tl = events.NewTimeline(1 << 21)
		run.mm = cluster.NewMasterMetrics(metrics.NewRegistry())
		run.lossLog = &callLog{}
		cfg.Timeline, cfg.Metrics = run.tl, run.mm
		cfg.Model = &tracedModel{Model: sp.model, log: run.lossLog, tl: run.tl,
			step: func() int { return int(run.rec.steps.Load()) - 1 }}
	}
	master, err := cluster.NewMaster(cfg)
	if err != nil {
		return nil, err
	}
	run.rec.stop = master.Stop
	run.masterUp = time.Now()

	var wg sync.WaitGroup
	workerErrs := make([]error, sp.n)
	if traced {
		run.wm = make([]*cluster.WorkerMetrics, sp.n)
		run.probes = make([]*workerProbe, sp.n)
	}
	for i := 0; i < sp.n; i++ {
		pids := st.Partitions(i)
		wcfg := cluster.WorkerConfig{
			Addr:       master.Addr(),
			ID:         i,
			Partitions: pids,
			Model:      sp.model,
			Encode:     encoderFor(i),
			DelaySeed:  seed*1000 + int64(i),
		}
		if sp.delayMean > 0 {
			wcfg.Delay = straggler.Exponential{Mean: sp.delayMean}
		}
		if traced {
			p := &workerProbe{id: i, tl: run.tl}
			run.probes[i] = p
			run.wm[i] = cluster.NewWorkerMetrics(metrics.NewRegistry())
			wcfg.Model, wcfg.Encode = p.model(sp.model), p.encoder(wcfg.Encode)
			if wcfg.Delay != nil {
				wcfg.Delay = tracedDelay{wcfg.Delay, p}
			}
			wcfg.Metrics, wcfg.Timeline = run.wm[i], run.tl
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = runWorker(wcfg, in, sp.batch, seed)
		}(i)
	}
	run.proc.begin()
	res, err := master.Run()
	wg.Wait()
	run.proc.end()
	if err != nil {
		return nil, fmt.Errorf("%s: master: %w", sp.name, err)
	}
	for i, werr := range workerErrs {
		if werr != nil {
			return nil, fmt.Errorf("%s: worker %d: %w", sp.name, i, werr)
		}
	}
	run.res = res
	run.attr = master.AttributionReport()
	if res.Run.Steps() == 0 || len(run.rec.ticks) < res.Run.Steps() {
		return nil, fmt.Errorf("%s: %d steps recorded, %d ticks", sp.name, res.Run.Steps(), len(run.rec.ticks))
	}
	return run, nil
}

// runWorker is one worker's life: loaders under the shared seed discipline
// (seed + partition·7919, as the engine and the CLIs use), register, serve.
func runWorker(cfg cluster.WorkerConfig, in *tcpInputs, batch int, seed int64) error {
	cfg.Loaders = make([]*dataset.Loader, len(cfg.Partitions))
	for j, d := range cfg.Partitions {
		var err error
		if cfg.Loaders[j], err = dataset.NewLoader(in.parts[d], batch, seed+int64(d)*7919); err != nil {
			return err
		}
	}
	w, err := cluster.NewWorker(cfg)
	if err != nil {
		return err
	}
	_, err = w.Run()
	return err
}

// reference replays a wait-all run in process with the same seed.
func (sp *tcpSpec) reference(a arm, in *tcpInputs, seed int64, steps int) (*engine.Result, error) {
	st, _, _, err := a.build(sp.n, sp.c, seed)
	if err != nil {
		return nil, err
	}
	return engine.Train(engine.Config{
		Strategy:     st,
		Model:        sp.model,
		Data:         in.data,
		BatchSize:    sp.batch,
		LearningRate: sp.lr,
		W:            sp.w,
		MaxSteps:     steps,
		Seed:         seed,
		Parallel:     true,
	})
}
