package engine

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"isgc/internal/bitset"
	"isgc/internal/checkpoint"
	"isgc/internal/linalg"
	"isgc/internal/trace"
)

// StepCore is the one implementation of the per-step protocol (Sec. IV):
// decode whoever arrived, apply the unbiased mean of exactly the recovered
// partitions, record it, and decide convergence and checkpoint cadence.
// Train drives it under the simulated clock and cluster.Master over TCP;
// each driver keeps only its gather, its loss evaluation and its own
// checkpoint fields. The core reads no wall clock and no global RNG.
//
// Of Config it reads Strategy, LearningRate, LRSchedule, Momentum,
// WeightDecay, MaxSteps, LossThreshold, Seed, W, WSchedule, DecodeCache,
// IncrementalDecode, Events, Checkpoint, CheckpointEvery and Restore.
type StepCore struct {
	cfg *Config
	st  Strategy
	n   int

	params   []float64
	velocity []float64 // lazily allocated momentum buffer
	start    int       // first step this life runs
	complete bool      // restored from a Completed checkpoint: nothing to run
	res      Result

	// The last Snapshot's Params and Velocity bytes, rewritten in place by
	// the next one.
	snapParams, snapVelocity []byte
}

// NewStepCore starts a run at step 0 on params, which the core owns from
// here on, and switches on the decoder modes cfg asks for (DecodeCache,
// IncrementalDecode) where the strategy has them. Call Restore before the
// first step to start later.
func NewStepCore(cfg *Config, params []float64) *StepCore {
	if dc, ok := cfg.Strategy.(DecodeCacher); ok && cfg.DecodeCache > 0 {
		dc.EnableDecodeCache(cfg.DecodeCache)
	}
	if id, ok := cfg.Strategy.(IncrementalDecoder); ok && cfg.IncrementalDecode {
		id.EnableIncrementalDecode()
	}
	return &StepCore{cfg: cfg, st: cfg.Strategy, n: cfg.Strategy.N(), params: params}
}

// GatherTarget is what step's gather waits for, the one rule both drivers
// read: WaitFor of the step's w (W, or WSchedule(step)). flexible reports
// that the scheme decodes any subset, so its gather may end short of the
// target — at a deadline, or degraded to the workers still reachable; a
// rigid one (Sync-SGD, classic GC) needs every upload WaitFor names.
func (c *StepCore) GatherTarget(step int) (target int, flexible bool) {
	w := c.cfg.W
	if c.cfg.WSchedule != nil {
		w = c.cfg.WSchedule(step)
	}
	return c.st.WaitFor(w), isFlexible(c.st)
}

// isFlexible tells a flexible scheme by its WaitFor: a rigid one reports
// the same count for every target.
func isFlexible(st Strategy) bool { return st.WaitFor(1) != st.WaitFor(st.N()) }

// Params returns the live parameter vector; Update mutates it in place.
func (c *StepCore) Params() []float64 { return c.params }

// StartStep is the first step this life runs: 0 on a cold start, the
// resume point after Restore, MaxSteps when a Completed checkpoint already
// answers the run.
func (c *StepCore) StartStep() int { return c.start }

// NextStep is the step a checkpoint taken now resumes at.
func (c *StepCore) NextStep() int { return c.start + c.res.Run.Steps() }

// Restore resumes from the newest valid snapshot of cfg.Checkpoint when
// cfg.Restore asks for it. It returns nil state on a cold start (restore
// off, or a fresh directory); otherwise the snapshot, so the driver can
// pick up its own fields. A snapshot of a different scheme shape (name, n,
// c) or seed, or of another parameter dimension, is refused; a Completed
// one leaves nothing to run (StartStep == MaxSteps) and fills the result's
// convergence fields.
func (c *StepCore) Restore() (*checkpoint.State, checkpoint.Info, error) {
	if !c.cfg.Restore || c.cfg.Checkpoint == nil {
		return nil, checkpoint.Info{}, nil
	}
	var cst checkpoint.State
	info, err := c.cfg.Checkpoint.Latest(&cst)
	if errors.Is(err, checkpoint.ErrNoCheckpoint) {
		return nil, info, nil
	}
	if err != nil {
		return nil, info, fmt.Errorf("restore: %w", err)
	}
	if cst.Scheme != c.st.Name() || cst.N != c.n || cst.C != c.st.C() || cst.Seed != c.cfg.Seed {
		return nil, info, fmt.Errorf("checkpoint %s is for scheme=%q n=%d c=%d seed=%d, config says scheme=%q n=%d c=%d seed=%d",
			info.File, cst.Scheme, cst.N, cst.C, cst.Seed, c.st.Name(), c.n, c.st.C(), c.cfg.Seed)
	}
	if want := 8 * len(c.params); len(cst.Params) != want || (len(cst.Velocity) > 0 && len(cst.Velocity) != want) {
		return nil, info, fmt.Errorf("checkpoint %s holds %d parameter bytes and %d velocity bytes, the model has %d parameters (%d bytes)",
			info.File, len(cst.Params), len(cst.Velocity), len(c.params), want)
	}
	c.params, c.start = checkpoint.BytesToFloat64s(cst.Params), cst.Step
	if len(cst.Velocity) > 0 {
		c.velocity = checkpoint.BytesToFloat64s(cst.Velocity)
	}
	if rs, ok := c.st.(RandStateful); ok {
		rs.RestoreRandState(cst.DecoderSeed, cst.DecoderDraws)
	}
	if cst.Completed {
		c.complete = true
		c.start = c.cfg.MaxSteps
		c.res.Converged = cst.Step < c.cfg.MaxSteps
		c.res.StepsToThreshold = cst.Step
	}
	return &cst, info, nil
}

// Completed reports that Restore found a finished run.
func (c *StepCore) Completed() bool { return c.complete }

// Snapshot fills the checkpoint fields every driver shares; the driver adds
// its own (run identity, eval cache, straggler RNG) and saves it under
// nextStep. Params and Velocity are byte buffers the core owns: they stay
// valid until its next Snapshot, which writes them again, so a driver saves
// (or copies) one snapshot before taking the next.
func (c *StepCore) Snapshot(nextStep int, completed bool, savedAt time.Time) checkpoint.State {
	c.snapParams = checkpoint.AppendFloat64s(c.snapParams[:0], c.params)
	cst := checkpoint.State{
		Version:         checkpoint.Version,
		Scheme:          c.st.Name(),
		N:               c.n,
		C:               c.st.C(),
		Seed:            c.cfg.Seed,
		W:               c.cfg.W,
		Step:            nextStep,
		Params:          c.snapParams,
		EventCursor:     c.cfg.Events.Total(),
		RecordCursor:    c.res.Run.Steps(),
		Completed:       completed,
		SavedAtUnixNano: savedAt.UnixNano(),
	}
	if c.velocity != nil {
		c.snapVelocity = checkpoint.AppendFloat64s(c.snapVelocity[:0], c.velocity)
		cst.Velocity = c.snapVelocity
	}
	if rs, ok := c.st.(RandStateful); ok {
		cst.DecoderSeed, cst.DecoderDraws = rs.RandState()
	}
	return cst
}

// Decoded is one step's recovery, between Decode and Update.
type Decoded struct {
	// Parts lists the recovered partitions, sorted.
	Parts []int

	step  int
	avail *bitset.Set
	ghat  []float64
}

// Decode recovers the step's gradient sum from the gathered uploads
// (coded[i] is nil for workers outside avail); d holds avail until Update.
// Parts is a copy, since the step's record keeps it; ĝ is the strategy's
// until its next Recover, so d must reach Update before the next Decode.
func (c *StepCore) Decode(step int, avail *bitset.Set, coded [][]float64) (Decoded, error) {
	ghat, parts, err := c.st.Recover(avail, coded)
	if err != nil {
		return Decoded{}, fmt.Errorf("step %d: %w", step, err)
	}
	return Decoded{Parts: slices.Clone(parts), step: step, avail: avail, ghat: ghat}, nil
}

// Update applies the decoded step — the mean over exactly the recovered
// partitions (Assumption 2), under the learning-rate schedule, momentum and
// weight decay — and returns its record with everything the core decides
// filled in; the driver adds what it measured (Alive, Degraded, Loss,
// Accuracy, Elapsed) and hands it to Finish.
func (c *StepCore) Update(d Decoded) (trace.StepRecord, error) {
	cfg := c.cfg
	lr := cfg.LearningRate
	if cfg.LRSchedule != nil {
		factor := cfg.LRSchedule(d.step)
		if factor <= 0 {
			return trace.StepRecord{}, fmt.Errorf("LRSchedule(%d) = %v, need > 0", d.step, factor)
		}
		lr *= factor
	}
	recovered := len(d.Parts)
	if recovered > 0 {
		inv := 1 / float64(recovered)
		if cfg.Momentum > 0 || cfg.WeightDecay > 0 {
			if c.velocity == nil {
				c.velocity = make([]float64, len(c.params))
			}
			for j := range c.velocity {
				g := d.ghat[j] * inv
				if cfg.WeightDecay > 0 {
					g += cfg.WeightDecay * c.params[j]
				}
				c.velocity[j] = cfg.Momentum*c.velocity[j] + g
				c.params[j] -= lr * c.velocity[j]
			}
		} else {
			linalg.AXPY(c.params, -lr*inv, d.ghat)
		}
	}
	return trace.StepRecord{
		Step:              d.step,
		Available:         d.avail.Len(),
		Chosen:            recovered / c.st.C(),
		RecoveredFraction: float64(recovered) / float64(c.n),
		Partitions:        d.Parts,
	}, nil
}

// Finish appends a completed step's record. It reports whether the run
// converged on it (loss at or below LossThreshold) and, if not, whether a
// periodic checkpoint is due at this step boundary.
func (c *StepCore) Finish(rec trace.StepRecord) (converged, checkpointDue bool) {
	c.res.Run.Append(rec)
	if c.cfg.LossThreshold > 0 && rec.Loss <= c.cfg.LossThreshold {
		c.res.Converged = true
		c.res.StepsToThreshold = rec.Step + 1
		return true, false
	}
	next := rec.Step + 1
	due := c.cfg.Checkpoint != nil && c.cfg.CheckpointEvery > 0 &&
		next%c.cfg.CheckpointEvery == 0 && next < c.cfg.MaxSteps
	return false, due
}

// Result returns the run so far; valid at any point, final once the driver
// stops stepping.
func (c *StepCore) Result() *Result {
	if !c.res.Converged {
		c.res.StepsToThreshold = c.cfg.MaxSteps
	}
	c.res.Params = c.params
	return &c.res
}
