package engine

import (
	"fmt"
	"time"

	"isgc/internal/bitset"
	"isgc/internal/checkpoint"
	"isgc/internal/dataset"
	"isgc/internal/events"
	"isgc/internal/model"
	"isgc/internal/simclock"
	"isgc/internal/straggler"
	"isgc/internal/trace"
)

// Config describes one training run.
type Config struct {
	// Strategy is the straggler-mitigation scheme under test.
	Strategy Strategy
	// Model is the workload.
	Model model.Model
	// Data is the full training set; it is split into Strategy.N() equal
	// partitions.
	Data *dataset.Dataset
	// BatchSize is the per-partition mini-batch size.
	BatchSize int
	// LearningRate is the SGD step size η.
	LearningRate float64
	// LRSchedule, when non-nil, multiplies LearningRate per step (e.g.
	// step-decay or 1/t decay); it must return positive factors.
	LRSchedule func(step int) float64
	// Momentum is the classical heavy-ball coefficient μ ∈ [0, 1): the
	// update keeps a velocity v ← μ·v + ĝ_mean and steps by η·v. Zero
	// (the default) is plain SGD; the paper's torch.optim.SGD exposes the
	// same knob.
	Momentum float64
	// WeightDecay is an L2 penalty coefficient λ added to the gradient as
	// λ·β (decoupled from the loss evaluation, like torch's SGD).
	WeightDecay float64
	// W is the number of workers the master waits for each step (flexible
	// schemes only; Sync-SGD and classic GC override it).
	W int
	// WSchedule, when non-nil, overrides W per step for flexible schemes:
	// the master waits for WSchedule(step) workers. This implements the
	// adaptive policy sketched in Sec. IV of the paper — "receive
	// gradients from fewer workers at the beginning to save time, and
	// then from more workers afterwards until convergence". Rigid schemes
	// (Sync-SGD, classic GC) still override the value.
	WSchedule func(step int) int
	// Deadline, when positive, switches the gather from fastest-w to the
	// deadline policy of Sec. IV: each step the master accepts exactly
	// the workers that finish within Deadline. When nobody makes the
	// deadline the master waits for the single fastest worker (an empty
	// step would make no progress) and the step is charged that worker's
	// arrival time. Rigid schemes ignore it. Takes precedence over
	// WSchedule.
	Deadline time.Duration
	// MaxSteps bounds the run.
	MaxSteps int
	// LossThreshold stops the run once the full-training-set loss drops
	// to or below it; 0 disables the threshold (the paper trains "until
	// the training loss reaches a given threshold").
	LossThreshold float64
	// ComputePerPartition and Upload parameterize the simulated step time
	// (see simclock); both may be zero for pure-convergence experiments.
	ComputePerPartition time.Duration
	Upload              time.Duration
	// Profile injects straggler delays (nil = none).
	Profile *straggler.Profile
	// ComputeFactors optionally makes the fleet heterogeneous: worker i's
	// compute time is scaled by ComputeFactors[i] (see simclock). Nil
	// means homogeneous.
	ComputeFactors []float64
	// Seed drives parameter initialization and batch sampling; runs with
	// equal seeds start from identical parameters and see identical
	// batches, mirroring the paper's controlled-seed methodology.
	Seed int64
	// EvalEvery controls how often the full training loss is evaluated
	// (every step if ≤ 1). Loss records between evaluations repeat the
	// last value.
	EvalEvery int
	// Parallel computes the per-partition gradients of a step on the shared
	// compute helpers (package par). Results are bit-identical to the
	// serial path (each partition writes its own slot); worth enabling for
	// large models.
	Parallel bool
	// DecodeCache, when positive, memoizes decode results in an LRU of
	// that many availability masks (isgc schemes only; see
	// isgc.Scheme.EnableDecodeCache for the fairness tradeoff). Repeated
	// masks then skip the decoder's rng draws, so runs with the cache on
	// may pick different — equally large — independent sets than runs
	// with it off.
	DecodeCache int
	// IncrementalDecode, when true, repairs the previous step's chosen
	// worker set against the availability delta instead of re-solving from
	// scratch (isgc schemes only; see isgc.Scheme.EnableIncrementalDecode).
	// Results keep the exact maximum-recovery guarantee; like the decode
	// cache, the repair path freezes the randomized tie-breaking while the
	// mask drifts, so it is opt-in.
	IncrementalDecode bool
	// Events, when non-nil, receives structured run/step events. Nil
	// disables event logging.
	Events *events.Log
	// Attribution, when non-nil, accumulates per-worker compute/arrival
	// samples from the simulated clock so the straggler-attribution
	// report works for in-process experiments exactly as it does for the
	// TCP cluster. Nil costs one branch per step.
	Attribution *trace.Attribution
	// Checkpoint, when non-nil, persists a durable snapshot every
	// CheckpointEvery steps plus a final one marked Completed. Restore
	// resumes from the newest valid snapshot; the resumed run's records
	// and final params are bit-identical to an uninterrupted run from the
	// checkpoint boundary on (DecodeCache off — see DESIGN.md
	// "Durability").
	Checkpoint *checkpoint.Store
	// CheckpointEvery is the period in steps (0 = final checkpoint only).
	CheckpointEvery int
	// Restore resumes from Checkpoint's newest valid snapshot when one
	// exists; a fresh directory cold-starts.
	Restore bool
	// Interrupt, when non-nil, is polled at every step boundary: returning
	// true stops the run there, writes a final (non-Completed) checkpoint
	// when Checkpoint is set, and returns with Result.Interrupted. This is
	// the graceful-shutdown hook the CLIs wire to SIGTERM/SIGINT.
	Interrupt func(step int) bool
}

// Result summarizes a completed run.
type Result struct {
	// Run holds the per-step records.
	Run trace.Run
	// Params is the final parameter vector.
	Params []float64
	// Converged reports whether the loss threshold was reached before
	// MaxSteps.
	Converged bool
	// StepsToThreshold is the 1-based step count at convergence
	// (== Run.Steps() when Converged; MaxSteps otherwise).
	StepsToThreshold int
	// Interrupted reports the run stopped early via Config.Interrupt; the
	// final checkpoint (if any) is resumable, not Completed.
	Interrupted bool
}

// RandStateful is the optional Strategy capability behind checkpointing:
// schemes whose decode draws from a seeded RNG (IS-GC's fairness
// tie-breaks) expose the stream position so a checkpoint can capture it
// and a restore can land on the exact next draw.
type RandStateful interface {
	// RandState returns the RNG's (seed, draws-so-far) position.
	RandState() (seed int64, draws uint64)
	// RestoreRandState repositions the RNG.
	RestoreRandState(seed int64, draws uint64)
}

// DecodeCacher is the optional Strategy capability behind Config.DecodeCache:
// schemes whose decode is a pure function of the availability mask (IS-GC)
// expose memoization through it. See isgc.Scheme.EnableDecodeCache.
type DecodeCacher interface {
	// EnableDecodeCache turns on an LRU of the given capacity.
	EnableDecodeCache(capacity int)
	// SetDecodeCacheHooks registers hit/miss callbacks (either may be nil).
	SetDecodeCacheHooks(onHit, onMiss func())
	// DecodeCacheStats returns cumulative hits and misses.
	DecodeCacheStats() (hits, misses uint64)
}

// IncrementalDecoder is the optional Strategy capability behind
// Config.IncrementalDecode: schemes that can repair the previous chosen
// set against a mask delta expose the path through it. See
// isgc.Scheme.EnableIncrementalDecode for the repair and fallback rules.
type IncrementalDecoder interface {
	// EnableIncrementalDecode turns on incremental repair.
	EnableIncrementalDecode()
	// SetIncrementalHooks registers repair/fallback callbacks (either may
	// be nil).
	SetIncrementalHooks(onRepair, onFallback func())
	// IncrementalDecodeCounts returns cumulative repairs, fallbacks, full
	// solves, and cache syncs.
	IncrementalDecodeCounts() (repairs, fallbacks, fullSolves, cacheSyncs uint64)
}

// Train runs distributed SGD under the configured scheme and returns the
// trace. The run is fully deterministic given Config.
func Train(cfg Config) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	st := cfg.Strategy
	n := st.N()
	cfg.Events.Info("engine.run_started", "in-process training started", events.NoStep, events.NoWorker,
		events.Fields{"scheme": st.Name(), "workers": n, "max_steps": cfg.MaxSteps})

	parts, err := cfg.Data.Partition(n)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	loaders := make([]*dataset.Loader, n)
	for d := range loaders {
		// The loader seed depends only on (run seed, partition): replicas
		// of a partition on different workers share batches.
		loaders[d], err = dataset.NewLoader(parts[d], cfg.BatchSize, cfg.Seed+int64(d)*7919)
		if err != nil {
			return nil, fmt.Errorf("engine: partition %d: %w", d, err)
		}
	}

	sim, err := simclock.New(simclock.Config{
		N:                   n,
		ComputePerPartition: cfg.ComputePerPartition,
		PartitionsPerWorker: st.C(),
		Upload:              cfg.Upload,
		Profile:             cfg.Profile,
		ComputeFactors:      cfg.ComputeFactors,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}

	core := NewStepCore(&cfg, cfg.Model.InitParams(cfg.Seed))
	all := materialize(cfg.Data)
	// Per-partition gradient buffers, reused every step: after the first
	// step the gradient stage allocates nothing.
	pg := &PartitionGrads{Model: cfg.Model, Loaders: loaders, Bufs: make([][]float64, n)}
	grads := make([][]float64, n)
	needed := make([]int, 0, n)
	// The full-set loss goes through the evaluator the cluster master uses,
	// so both report the same bits.
	var lossEval model.Blocked

	classifier, isClassifier := cfg.Model.(model.Classifier)
	lastLoss := lossEval.Loss(cfg.Model, core.Params(), all)
	lastAcc := 0.0
	if isClassifier {
		lastAcc = model.Accuracy(classifier, core.Params(), all)
	}

	// Checkpoint/restore: a restored run resumes at core.StartStep() > 0;
	// the earlier steps happened in a previous life and the result covers
	// the rest only.
	saveCheckpoint := func(nextStep int, completed bool) error {
		cst := core.Snapshot(nextStep, completed, time.Now())
		cst.LastLoss, cst.LastAccuracy = lastLoss, lastAcc
		if cfg.Profile != nil {
			cst.ProfileActive = true
			cst.ProfileSeed, cst.ProfileDraws = cfg.Profile.RandState()
		}
		_, err := cfg.Checkpoint.Save(nextStep, &cst)
		return err
	}
	cst, info, err := core.Restore()
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if cst != nil {
		lastLoss, lastAcc = cst.LastLoss, cst.LastAccuracy
		if cst.ProfileActive && cfg.Profile != nil {
			cfg.Profile.RestoreRandState(cst.ProfileSeed, cst.ProfileDraws)
		}
		cfg.Events.Info("engine.restored", "resumed from checkpoint", cst.Step, events.NoWorker,
			events.Fields{"file": info.File, "completed": cst.Completed})
	}
	params := core.Params()

	for step := core.StartStep(); step < cfg.MaxSteps; step++ {
		// 1. Straggler simulation: who is available, and how long the
		// master waited — fastest-w by default (w per step under WSchedule),
		// or a fixed deadline (Sec. IV policies).
		times := sim.Step()
		target, flexible := core.GatherTarget(step)
		var avail *bitset.Set
		var elapsed time.Duration
		var err error
		if cfg.Deadline > 0 && flexible {
			avail, elapsed = simclock.Deadline(times, cfg.Deadline)
			if avail.Empty() {
				avail, elapsed, err = simclock.FastestW(times, 1)
			}
		} else {
			avail, elapsed, err = simclock.FastestW(times, target)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: step %d: %w", step, err)
		}
		if cfg.Attribution != nil {
			// The simulated clock decomposes exactly: arrival is the
			// worker's total finish time, compute is its share before
			// upload and injected delay.
			for i := 0; i < n; i++ {
				compute := time.Duration(st.C()) * cfg.ComputePerPartition
				if cfg.ComputeFactors != nil {
					compute = time.Duration(float64(compute) * cfg.ComputeFactors[i])
				}
				sample := trace.ArrivalSample{Worker: i, Step: step, Compute: compute, Arrival: times[i]}
				if avail.Contains(i) {
					cfg.Attribution.ObserveAccepted(sample)
				} else {
					cfg.Attribution.ObserveIgnored(sample)
				}
			}
		}

		// 2. Per-partition mean gradients for this step's batches. Thanks
		// to the controlled seeds, a partition's gradient is identical on
		// every worker replicating it, so we compute each once — each
		// needed partition into its own reusable buffer.
		for d := range grads {
			grads[d] = nil
		}
		needed = needed[:0]
		avail.Range(func(i int) bool {
			for _, d := range st.Partitions(i) {
				if grads[d] != nil {
					continue
				}
				if pg.Bufs[d] == nil {
					pg.Bufs[d] = make([]float64, cfg.Model.Dim())
				}
				grads[d] = pg.Bufs[d]
				needed = append(needed, d)
			}
			return true
		})
		pg.Run(needed, params, step, cfg.Parallel)

		// 3. Worker-side encoding for available workers.
		coded := make([][]float64, n)
		var encodeErr error
		avail.Range(func(i int) bool {
			coded[i], encodeErr = st.Encode(i, grads)
			return encodeErr == nil
		})
		if encodeErr != nil {
			return nil, fmt.Errorf("engine: step %d: %w", step, encodeErr)
		}

		// 4. Master-side recovery and parameter update.
		dec, err := core.Decode(step, avail, coded)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		rec, err := core.Update(dec)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		recovered := len(dec.Parts)

		// 5. Bookkeeping.
		if cfg.EvalEvery <= 1 || (step+1)%cfg.EvalEvery == 0 || step == cfg.MaxSteps-1 {
			lastLoss = lossEval.Loss(cfg.Model, params, all)
			if isClassifier {
				lastAcc = model.Accuracy(classifier, params, all)
			}
		}
		cfg.Events.Debug("engine.step_completed", "simulated step finished", step, events.NoWorker,
			events.Fields{"available": rec.Available, "recovered": recovered,
				"loss": lastLoss, "elapsed": elapsed.String()})
		rec.Loss, rec.Accuracy, rec.Elapsed = lastLoss, lastAcc, elapsed
		converged, checkpointDue := core.Finish(rec)
		if converged {
			break
		}
		if cfg.Interrupt != nil && cfg.Interrupt(step) {
			core.Result().Interrupted = true
			if cfg.Checkpoint != nil {
				if err := saveCheckpoint(step+1, false); err != nil {
					return nil, fmt.Errorf("engine: interrupt checkpoint: %w", err)
				}
			}
			cfg.Events.Info("engine.interrupted", "run stopped at step boundary", step, events.NoWorker, nil)
			break
		}
		if checkpointDue {
			if err := saveCheckpoint(step+1, false); err != nil {
				return nil, fmt.Errorf("engine: step %d: %w", step, err)
			}
			cfg.Events.Debug("engine.checkpoint_written", "periodic checkpoint saved", step, events.NoWorker, nil)
		}
	}
	res := core.Result()
	if cfg.Checkpoint != nil && !core.Completed() && !res.Interrupted {
		if err := saveCheckpoint(core.NextStep(), true); err != nil {
			return nil, fmt.Errorf("engine: final checkpoint: %w", err)
		}
	}
	cfg.Events.Info("engine.run_finished", "in-process training finished", events.NoStep, events.NoWorker,
		events.Fields{"steps": res.Run.Steps(), "converged": res.Converged})
	return res, nil
}

func validate(cfg *Config) error {
	switch {
	case cfg.Strategy == nil:
		return fmt.Errorf("engine: nil strategy")
	case cfg.Model == nil:
		return fmt.Errorf("engine: nil model")
	case cfg.Data == nil:
		return fmt.Errorf("engine: nil dataset")
	case cfg.BatchSize <= 0:
		return fmt.Errorf("engine: need BatchSize > 0, got %d", cfg.BatchSize)
	case cfg.LearningRate <= 0:
		return fmt.Errorf("engine: need LearningRate > 0, got %v", cfg.LearningRate)
	case cfg.Momentum < 0 || cfg.Momentum >= 1:
		return fmt.Errorf("engine: need Momentum in [0, 1), got %v", cfg.Momentum)
	case cfg.WeightDecay < 0:
		return fmt.Errorf("engine: need WeightDecay ≥ 0, got %v", cfg.WeightDecay)
	case cfg.MaxSteps <= 0:
		return fmt.Errorf("engine: need MaxSteps > 0, got %d", cfg.MaxSteps)
	case cfg.DecodeCache < 0:
		return fmt.Errorf("engine: need DecodeCache ≥ 0, got %d", cfg.DecodeCache)
	}
	if err := model.CheckData(cfg.Model, cfg.Data); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

func materialize(d *dataset.Dataset) []dataset.Sample {
	out := make([]dataset.Sample, d.Len())
	for i := range out {
		out[i] = d.At(i)
	}
	return out
}
