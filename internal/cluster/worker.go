package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"isgc/internal/checkpoint"
	"isgc/internal/dataset"
	"isgc/internal/events"
	"isgc/internal/linalg"
	"isgc/internal/model"
	"isgc/internal/randsrc"
	"isgc/internal/straggler"
)

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	// Addr is the master's address.
	Addr string
	// ID is this worker's index in [0, n).
	ID int
	// Partitions lists the dataset partitions this worker stores
	// (Strategy.Partitions(ID) on the master side).
	Partitions []int
	// Loaders yields mini-batches per stored partition, index-aligned
	// with Partitions. Loader seeds must follow the shared discipline so
	// partition replicas see identical batches.
	Loaders []*dataset.Loader
	// Model computes gradients.
	Model model.Model
	// Encode combines the worker's per-partition gradients into the coded
	// upload: it receives the gradients aligned with Partitions. For
	// IS-GC this is the plain sum; for classic GC a fixed linear
	// combination (use CodedEncoder helpers).
	Encode func(localGrads [][]float64) ([]float64, error)
	// Delay optionally injects an artificial straggler delay before each
	// upload, sampled from the model (nil = none). This is how the
	// integration tests and the distributed example reproduce the paper's
	// delay injection over real sockets.
	Delay straggler.Model
	// DelaySeed seeds the delay sampling.
	DelaySeed int64
	// ComputePar sizes the worker's gradient compute pool: 0 picks
	// GOMAXPROCS, 1 forces sequential, >1 is explicit. With several
	// partitions the pool computes them concurrently (bit-identical to
	// sequential, so replicas on hosts with different settings still
	// agree); with a single partition it shards the batch instead, which
	// reassociates the mean's floating-point sum — safe because a
	// single-partition placement has no replicas to disagree with.
	ComputePar int
	// Fault optionally injects crash/drop/disconnect faults per step
	// (nil = none) — the deterministic worker-death counterpart of Delay,
	// used by integration tests and examples to reproduce machine loss.
	Fault straggler.Fault
	// FaultSeed seeds the fault sampling.
	FaultSeed int64
	// HeartbeatInterval is the period of MsgHeartbeat liveness pings sent
	// from a dedicated goroutine, so the master can tell "slow" from
	// "hung" even while this worker computes or sleeps (default 1s;
	// negative disables).
	HeartbeatInterval time.Duration
	// ReconnectTimeout, when positive, makes a worker whose connection
	// drops (or that injects FaultDisconnect) redial the master with
	// exponential backoff for up to this long, re-registering via
	// MsgHello with its last completed step. 0 disables reconnection:
	// a dropped connection ends Run.
	ReconnectTimeout time.Duration
	// DialTimeout bounds the initial connection (default 5s).
	DialTimeout time.Duration
	// Checkpoint, when non-nil, is where Stop persists the worker's
	// resumable state (RNG stream positions, step counter). Give each
	// worker its own store directory — a WorkerState names a single ID.
	Checkpoint *checkpoint.Store
	// Restore loads the latest WorkerState from Checkpoint before
	// registering, so delay/fault sampling resumes bit-identically and the
	// hello reports the pre-restart step count.
	Restore bool
	// Metrics, when non-nil, receives live instrumentation (compute time,
	// upload bytes, reconnects); serve it via the admin package.
	Metrics *WorkerMetrics
	// Events, when non-nil, receives the worker's structured event stream
	// (connects, injected faults, reconnects). Nil disables it.
	Events *events.Log
	// Timeline, when non-nil, collects this worker's local compute and
	// injected-delay spans for Chrome trace export. Nil disables it.
	Timeline *events.Timeline
}

// Worker trains on its partitions and uploads coded gradients until the
// master says stop.
type Worker struct {
	cfg WorkerConfig
	// connMu guards the w.c pointer itself: reconnect (Run's goroutine)
	// replaces it while Stop (signal-handler goroutine) reads it to close.
	connMu sync.Mutex
	c      *conn
	// staleness is the master's fold window from the current connection's
	// hello ack (0 in sync mode and from old masters): a step stays live
	// until a step more than staleness newer arrives.
	staleness int
	// delaySrc/faultSrc are the counting sources behind rng/frng, kept so
	// Stop can serialize the stream positions and a restored worker can
	// land on the very next delay/fault draw.
	delaySrc *randsrc.Source
	faultSrc *randsrc.Source
	rng      *rand.Rand
	frng     *rand.Rand
	stopHB   chan struct{}
	stopping atomic.Bool
	stopOnce sync.Once

	// pool and localBuf make computeStep allocation-free: one long-lived
	// compute pool and one reusable gradient buffer per stored partition,
	// handed to GradInto still holding the previous step's gradient (it
	// overwrites; nothing here clears).
	pool     *model.ParallelGrad
	localBuf [][]float64
	tasks    []func()

	// faultedThrough is the highest step the fault model has been
	// consulted for, and faultedAction what it drew for that step. A
	// rejoining worker is re-handed the in-flight step by the master. A
	// drawn drop applies to that re-delivery too, so a restored master sees
	// what an uninterrupted one would; a crash or disconnect does not —
	// re-firing DisconnectAt would tear the fresh connection down again
	// immediately, a rejoin storm that lasts until the master advances past
	// the step. Like frng they belong to the current connection's reader
	// goroutine while one runs; Run joins the reader before anyone else
	// looks.
	faultedThrough int
	faultedAction  straggler.FaultAction

	// steps, abandoned, reconnects, and connected are atomics because the
	// admin server's Health snapshot reads them while Run mutates.
	steps      atomic.Int64
	abandoned  atomic.Int64
	reconnects atomic.Int64
	connected  atomic.Bool
	// jobGone latches a MsgJobGone terminal reject of a registration: the
	// master this worker was serving has finished its run, so reconnection
	// stopped early.
	jobGone atomic.Bool
}

// JobGone reports whether the worker's run ended on a MsgJobGone terminal
// reject — a registration reached a master that had already finished the
// run. Valid after Run returns; it tells that exit apart from one on MsgStop.
func (w *Worker) JobGone() bool { return w.jobGone.Load() }

// Health returns a point-in-time snapshot for the worker's /healthz
// payload. Safe to call from any goroutine.
func (w *Worker) Health() WorkerHealth {
	return WorkerHealth{
		ID:          w.cfg.ID,
		Connected:   w.connected.Load(),
		StepsServed: w.steps.Load(),
		Abandoned:   w.abandoned.Load(),
		Reconnects:  w.reconnects.Load(),
	}
}

// NewWorker connects to the master and registers.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	switch {
	case cfg.ID < 0:
		return nil, fmt.Errorf("cluster: negative worker id %d", cfg.ID)
	case len(cfg.Partitions) == 0:
		return nil, fmt.Errorf("cluster: worker %d has no partitions", cfg.ID)
	case len(cfg.Loaders) != len(cfg.Partitions):
		return nil, fmt.Errorf("cluster: worker %d: %d loaders for %d partitions", cfg.ID, len(cfg.Loaders), len(cfg.Partitions))
	case cfg.Model == nil:
		return nil, fmt.Errorf("cluster: worker %d: nil model", cfg.ID)
	case cfg.Encode == nil:
		return nil, fmt.Errorf("cluster: worker %d: nil encoder", cfg.ID)
	}
	for j, l := range cfg.Loaders {
		if err := model.CheckData(cfg.Model, l.Data()); err != nil {
			return nil, fmt.Errorf("cluster: worker %d partition %d: %w", cfg.ID, cfg.Partitions[j], err)
		}
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}

	// Load any resumable state before registering, so the hello reports the
	// restored step count and the master's rejoin path skips completed work.
	var resumed *checkpoint.WorkerState
	if cfg.Restore && cfg.Checkpoint != nil {
		var st checkpoint.WorkerState
		switch _, err := cfg.Checkpoint.Latest(&st); {
		case err == nil:
			if st.ID != cfg.ID {
				return nil, fmt.Errorf("cluster: worker %d: checkpoint belongs to worker %d", cfg.ID, st.ID)
			}
			resumed = &st
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// Nothing saved yet — a cold start with -restore is fine.
		default:
			return nil, fmt.Errorf("cluster: worker %d: restore: %w", cfg.ID, err)
		}
	}
	startSteps := 0
	if resumed != nil {
		startSteps = int(resumed.Steps)
	}

	raw, err := dialWithRetry(cfg.Addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := newConn(raw, defaultWriteTimeout, cfg.Metrics.sentCounter())
	staleness, err := clientHello(c, cfg.ID, startSteps)
	if err != nil {
		_ = c.close()
		return nil, err
	}
	w := &Worker{
		cfg:            cfg,
		c:              c,
		staleness:      staleness,
		delaySrc:       randsrc.New(cfg.DelaySeed),
		faultSrc:       randsrc.New(cfg.FaultSeed),
		faultedThrough: -1,
		pool:           model.NewParallelGrad(cfg.ComputePar),
		localBuf:       make([][]float64, len(cfg.Partitions)),
		tasks:          make([]func(), len(cfg.Partitions)),
	}
	if resumed != nil {
		// Reposition the streams under the checkpointed seeds (which win
		// over the configured ones — the run's streams must continue).
		w.delaySrc.Restore(resumed.DelaySeed, resumed.DelayDraws)
		w.faultSrc.Restore(resumed.FaultSeed, resumed.FaultDraws)
		w.faultedThrough = resumed.FaultedThrough
		w.faultedAction = straggler.FaultAction(resumed.FaultedAction)
		w.steps.Store(resumed.Steps)
	}
	w.rng = w.delaySrc.Rand()
	w.frng = w.faultSrc.Rand()
	for j := range w.localBuf {
		w.localBuf[j] = make([]float64, cfg.Model.Dim())
	}
	cfg.Metrics.setComputeShards(w.pool.Par())
	w.setConnected(true)
	w.startHeartbeat()
	cfg.Events.Info("worker.connected", "registered with master", events.NoStep, cfg.ID,
		events.Fields{"addr": cfg.Addr})
	if resumed != nil {
		cfg.Events.Info("worker.restored", "resumed from checkpoint", events.NoStep, cfg.ID,
			events.Fields{"steps": resumed.Steps, "delay_draws": resumed.DelayDraws, "fault_draws": resumed.FaultDraws})
	}
	cfg.Timeline.SetThreadName(cfg.ID+1, fmt.Sprintf("worker %d", cfg.ID))
	return w, nil
}

// Stop makes the worker leave the fleet gracefully: reconnection is
// suppressed, the blocked recv is unstuck by closing the connection, and —
// when a checkpoint store is configured — Run persists the worker's RNG
// positions and progress on its way out. Safe to call from a signal-handler
// goroutine; idempotent.
func (w *Worker) Stop() {
	w.stopOnce.Do(func() {
		w.stopping.Store(true)
		w.connMu.Lock()
		c := w.c
		w.connMu.Unlock()
		_ = c.close()
	})
}

// saveState persists the worker's resumable position. Failures are logged,
// never fatal: a worker that cannot checkpoint still exits cleanly.
func (w *Worker) saveState() {
	if w.cfg.Checkpoint == nil {
		return
	}
	ds, dd := w.delaySrc.State()
	fs, fd := w.faultSrc.State()
	st := checkpoint.WorkerState{
		Version:        checkpoint.Version,
		ID:             w.cfg.ID,
		Steps:          w.steps.Load(),
		DelaySeed:      ds,
		DelayDraws:     dd,
		FaultSeed:      fs,
		FaultDraws:     fd,
		FaultedThrough: w.faultedThrough,
		FaultedAction:  int(w.faultedAction),
	}
	if _, err := w.cfg.Checkpoint.Save(int(st.Steps), st); err != nil {
		w.cfg.Events.Warn("worker.checkpoint_error", err.Error(), events.NoStep, w.cfg.ID, nil)
		return
	}
	w.cfg.Events.Info("worker.checkpoint_written", "resumable state persisted", events.NoStep, w.cfg.ID,
		events.Fields{"steps": st.Steps, "delay_draws": dd, "fault_draws": fd})
}

// setConnected keeps the atomic state and the gauge in lockstep.
func (w *Worker) setConnected(up bool) {
	w.connected.Store(up)
	w.cfg.Metrics.setConnected(up)
}

// Run processes step requests until the master stops the worker or the
// connection drops (and, with ReconnectTimeout set, cannot be re-dialed).
// It returns the number of steps served.
//
// A reader goroutine per connection drains the socket into a mailbox (see
// mailbox.go) while this goroutine computes, so the master's next broadcast
// is the cancel signal for everything older. A step can be abandoned at
// three points, all before its upload starts — in the mailbox, during the
// injected delay, and just before sendGradient — never mid-upload. That is
// always safe: a gradient that never arrives is just a straggler, which
// every gather policy already tolerates.
func (w *Worker) Run() (int, error) {
	mb := w.startReader()
	defer func() {
		w.stopHeartbeat()
		w.connMu.Lock()
		c := w.c
		w.connMu.Unlock()
		_ = c.close()
		<-mb.done
		w.setConnected(false)
		w.pool.Close()
		if w.stopping.Load() {
			// Graceful shutdown: leave a resumable snapshot behind.
			w.saveState()
		}
	}()
	for {
		st, end, endStep := mb.next()
		switch end {
		case endNone:
			linkUp, err := w.serve(mb, st)
			if err != nil {
				return int(w.steps.Load()), err
			}
			if linkUp {
				continue
			}
			// The upload failed: the master is gone or the link dropped.
		case endStop:
			return int(w.steps.Load()), nil
		case endCrash:
			// Die abruptly — no farewell message, exactly like a killed
			// process; the master learns via the closed socket.
			w.cfg.Events.Warn("worker.crash_injected", "injected crash; dying without farewell",
				endStep, w.cfg.ID, nil)
			return int(w.steps.Load()), nil
		case endDisconnect:
			w.cfg.Events.Warn("worker.disconnect_injected", "injected disconnect; will redial",
				endStep, w.cfg.ID, nil)
		case endConnLost:
			// Stop() closed the connection under us, the master tore it
			// down after MsgStop raced us, or a genuine failure.
		}
		// Try to rejoin, else we are done. reconnect closes the old
		// connection first, which is what ends the old reader.
		if !w.reconnect() {
			return int(w.steps.Load()), nil
		}
		<-mb.done
		mb = w.startReader()
	}
}

// startReader launches the reader goroutine for the current connection and
// returns its mailbox. The reader decodes every message the moment it
// arrives — so a sleeping or computing worker never leaves broadcast bytes
// in its kernel buffer for the master's send to block on — rolls the seeded
// fault schedule for every received step in order (served or skipped), and
// exits on stop, an injected crash or disconnect, or a failed recv; mb.done
// closes when it has. Params are read straight into buffers the mailbox
// recycles.
func (w *Worker) startReader() *mailbox {
	c := w.c
	mb := newMailbox(w.staleness, w.cfg.Model.Dim())
	c.sink = mb.reserve
	go func() {
		defer close(mb.done)
		for {
			e, err := c.recv()
			if err != nil {
				mb.finish(endConnLost, events.NoStep)
				return
			}
			switch e.Kind {
			case MsgStop:
				w.abandon(phaseQueued, mb.finish(endStop, events.NoStep)...)
				return
			case MsgJobGone:
				// The master finished while this connection registered.
				w.markJobGone()
				w.abandon(phaseQueued, mb.finish(endStop, events.NoStep)...)
				return
			case MsgStep:
				action := straggler.FaultNone
				switch {
				case w.cfg.Fault == nil:
				case e.Step > w.faultedThrough:
					action = w.cfg.Fault.At(e.Step, w.frng)
					w.faultedThrough, w.faultedAction = e.Step, action
				case e.Step == w.faultedThrough && w.faultedAction == straggler.FaultDrop:
					action = straggler.FaultDrop
				}
				switch action {
				case straggler.FaultCrash:
					// Die on the spot, as a killed process would: the master
					// must not have to wait for the compute loop to notice.
					_ = c.close()
					mb.finish(endCrash, e.Step)
					return
				case straggler.FaultDisconnect:
					mb.finish(endDisconnect, e.Step)
					return
				}
				w.abandon(phaseQueued, mb.put(stepWork{step: e.Step, params: e.Params,
					drop: action == straggler.FaultDrop})...)
			}
		}
	}()
	return mb
}

// abandon accounts for steps dropped before their upload started.
func (w *Worker) abandon(phase string, steps ...int) {
	for _, step := range steps {
		w.abandoned.Add(1)
		w.cfg.Metrics.markAbandoned(phase)
		w.cfg.Events.Debug("worker.step_abandoned", "step superseded before upload",
			step, w.cfg.ID, events.Fields{"phase": phase})
	}
}

// serve computes one step, waits out its injected delay and uploads the
// coded gradient, giving the step up at the first sign that it is no longer
// live. linkUp is false only when the upload itself failed; a step given up
// or dropped on purpose leaves the connection in service.
func (w *Worker) serve(mb *mailbox, st stepWork) (linkUp bool, err error) {
	coded, computeStart, computeDur, err := w.computeStep(st.step, st.params)
	mb.vecs.put(st.params)
	if err != nil {
		return false, err
	}
	w.cfg.Timeline.Add(events.Span{Name: "compute", Cat: "compute", TID: w.cfg.ID + 1,
		Start: computeStart, Dur: computeDur, Args: map[string]any{"step": st.step}})
	if w.cfg.Delay != nil {
		delayStart := time.Now()
		live, abandoned := mb.sleep(st.step, w.cfg.Delay.Sample(w.rng))
		args := map[string]any{"step": st.step}
		if abandoned {
			args["abandoned"] = true
		}
		w.cfg.Timeline.Add(events.Span{Name: "delay", Cat: "delay", TID: w.cfg.ID + 1,
			Start: delayStart, Dur: time.Since(delayStart), Args: args})
		if !live {
			if abandoned {
				w.abandon(phaseDelay, st.step)
			}
			return true, nil
		}
	}
	// Last look before the upload; past this point the gradient goes out
	// whole, so an abandoned step never leaves half an upload behind.
	if live, abandoned := mb.check(st.step); !live {
		if abandoned {
			w.abandon(phasePresend, st.step)
		}
		return true, nil
	}
	if st.drop {
		w.steps.Add(1) // computed, but the upload is lost
		w.cfg.Metrics.markStep()
		w.cfg.Metrics.markDrop()
		w.cfg.Events.Warn("worker.upload_dropped", "injected drop; gradient not sent",
			st.step, w.cfg.ID, nil)
		return true, nil
	}
	if err := w.sendGradient(st.step, coded, computeStart, computeDur); err != nil {
		return false, nil
	}
	w.steps.Add(1)
	w.cfg.Metrics.markStep()
	return true, nil
}

// sendGradient uploads one step's coded gradient as a single whole frame.
// The send completes before sendGradient returns, so the encoder's reusable
// buffer (SumEncoder's contract) is never read after the next encode.
func (w *Worker) sendGradient(step int, coded []float64, computeStart time.Time, computeDur time.Duration) error {
	w.connMu.Lock()
	c := w.c
	w.connMu.Unlock()
	return c.send(&Envelope{Kind: MsgGradient, Worker: w.cfg.ID, Step: step, Coded: coded,
		ComputeStartUnixNano: computeStart.UnixNano(), ComputeDurNanos: int64(computeDur)})
}

// reconnect redials the master with exponential backoff and re-registers
// with the last completed step. It reports whether the worker is connected
// again; false when reconnection is disabled or the budget ran out.
func (w *Worker) reconnect() bool {
	if w.stopping.Load() || w.cfg.ReconnectTimeout <= 0 {
		return false
	}
	w.stopHeartbeat()
	_ = w.c.close()
	w.setConnected(false)
	deadline := time.Now().Add(w.cfg.ReconnectTimeout)
	backoff := 25 * time.Millisecond
	for {
		if w.stopping.Load() {
			// Stop() arrived mid-backoff: a stopped worker must not wait
			// out the rest of the redial budget.
			return false
		}
		w.cfg.Metrics.markReconnectAttempt()
		raw, err := net.DialTimeout("tcp", w.cfg.Addr, 500*time.Millisecond)
		if err == nil {
			c := newConn(raw, defaultWriteTimeout, w.cfg.Metrics.sentCounter())
			staleness, helloErr := clientHello(c, w.cfg.ID, int(w.steps.Load()))
			if errors.Is(helloErr, ErrJobGone) {
				// Terminal reject: the master at this address has finished
				// the run. Burning the rest of the redial budget cannot
				// change that — bow out and report it.
				_ = c.close()
				w.markJobGone()
				return false
			}
			if helloErr == nil {
				w.connMu.Lock()
				w.c = c
				w.staleness = staleness
				stopped := w.stopping.Load()
				w.connMu.Unlock()
				if stopped {
					// Stop raced the redial: it closed the old conn just
					// before we swapped in the new one. Tear the fresh
					// connection down too and bow out.
					_ = c.close()
					return false
				}
				w.reconnects.Add(1)
				w.cfg.Metrics.markReconnect()
				w.setConnected(true)
				w.startHeartbeat()
				w.cfg.Events.Info("worker.reconnected", "re-registered after connection loss",
					events.NoStep, w.cfg.ID, events.Fields{"completed_steps": w.steps.Load()})
				return true
			}
			_ = c.close()
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > time.Second {
			backoff = time.Second
		}
	}
}

// markJobGone latches the master's MsgJobGone: the run is over.
func (w *Worker) markJobGone() {
	w.jobGone.Store(true)
	w.cfg.Events.Info("worker.job_gone", "the master finished the run", events.NoStep, w.cfg.ID, nil)
}

// startHeartbeat launches the liveness pinger for the current connection;
// it exits on stopHeartbeat or when a ping fails (connection gone).
func (w *Worker) startHeartbeat() {
	if w.cfg.HeartbeatInterval < 0 {
		return
	}
	interval := w.cfg.HeartbeatInterval
	if interval == 0 {
		interval = time.Second
	}
	c := w.c
	stop := make(chan struct{})
	w.stopHB = stop
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if c.send(&Envelope{Kind: MsgHeartbeat, Worker: w.cfg.ID}) != nil {
					return
				}
			}
		}
	}()
}

func (w *Worker) stopHeartbeat() {
	if w.stopHB != nil {
		close(w.stopHB)
		w.stopHB = nil
	}
}

// computeStep runs the local gradient computation and returns the coded
// upload plus its timing (start and duration), which the caller stamps
// into the gradient envelope for master-side straggler attribution.
//
// With several partitions the pool computes them concurrently, each into
// its own reusable buffer — bit-identical to sequential. With one
// partition there are no replicas to stay bit-identical with, so the pool
// shards the batch itself.
func (w *Worker) computeStep(step int, params []float64) ([]float64, time.Time, time.Duration, error) {
	start := time.Now()
	if len(w.cfg.Partitions) == 1 {
		w.pool.GradInto(w.localBuf[0], params, w.cfg.Model, w.cfg.Loaders[0].Samples(step))
	} else {
		for j := range w.cfg.Loaders {
			j := j
			w.tasks[j] = func() {
				w.cfg.Model.GradInto(w.localBuf[j], params, w.cfg.Loaders[j].Samples(step))
			}
		}
		w.pool.Run(w.tasks...)
	}
	coded, err := w.cfg.Encode(w.localBuf)
	if err != nil {
		return nil, start, 0, fmt.Errorf("cluster: worker %d step %d: %w", w.cfg.ID, step, err)
	}
	dur := time.Since(start)
	w.cfg.Metrics.observeCompute(dur)
	return coded, start, dur, nil
}

// SumEncoder returns the IS-GC encoder: the plain sum of the local
// per-partition gradients (linalg.SumInto — one pass over the output, which
// is written and never read). The closure owns a reusable output buffer, so
// steady-state encoding allocates nothing; the returned slice is only
// valid until the next call. That is safe for WorkerConfig.Encode — the
// worker sends the upload synchronously before encoding the next step —
// but means one encoder must not be shared between workers.
func SumEncoder() func([][]float64) ([]float64, error) {
	var out []float64
	return func(local [][]float64) ([]float64, error) {
		dim, err := localDim(local)
		if err != nil {
			return nil, err
		}
		if len(out) != dim {
			out = make([]float64, dim)
		}
		linalg.SumInto(out, local)
		return out, nil
	}
}

// LinearEncoder returns a fixed-coefficient encoder (classic GC): coeffs is
// aligned with the worker's partition list. Buffer-reuse contract matches
// SumEncoder: one encoder per worker, result valid until the next call.
// The first term is written (0 + c0·g0), the rest accumulate: the bits of a
// zero-filled buffer and one AXPY per gradient.
func LinearEncoder(coeffs []float64) func([][]float64) ([]float64, error) {
	cs := append([]float64(nil), coeffs...)
	var out []float64
	return func(local [][]float64) ([]float64, error) {
		if len(local) != len(cs) {
			return nil, fmt.Errorf("cluster: %d gradients for %d coefficients", len(local), len(cs))
		}
		dim, err := localDim(local)
		if err != nil {
			return nil, err
		}
		if len(out) != dim {
			out = make([]float64, dim)
		}
		linalg.AXPYZero(out, cs[0], local[0])
		for j, g := range local[1:] {
			linalg.AXPY(out, cs[j+1], g)
		}
		return out, nil
	}
}

// localDim returns the common dimension of a worker's local gradients; an
// empty or ragged list is an error, so the encoders' kernels never see one.
func localDim(local [][]float64) (int, error) {
	if len(local) == 0 {
		return 0, fmt.Errorf("cluster: no local gradients")
	}
	dim := len(local[0])
	for _, g := range local[1:] {
		if len(g) != dim {
			return 0, fmt.Errorf("cluster: gradient dim mismatch %d vs %d", len(g), dim)
		}
	}
	return dim, nil
}
