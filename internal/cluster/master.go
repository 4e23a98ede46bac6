package cluster

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"isgc/internal/bitset"
	"isgc/internal/checkpoint"
	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/model"
	"isgc/internal/trace"
)

// defaultWriteTimeout bounds a single outbound send on either side of the
// protocol so one stalled socket cannot wedge a broadcast or a heartbeat.
const defaultWriteTimeout = 5 * time.Second

// MasterConfig configures a training master.
type MasterConfig struct {
	// Addr is the listen address, e.g. "127.0.0.1:0".
	Addr string
	// Strategy decodes coded gradients (shared vocabulary with the
	// in-process engine).
	Strategy engine.Strategy
	// Model evaluates the training loss; the master holds the parameters.
	Model model.Model
	// Data is the full training set (for loss evaluation).
	Data *dataset.Dataset
	// LearningRate is η.
	LearningRate float64
	// W is the number of workers to wait for per step (flexible schemes).
	W int
	// Deadline, when positive, replaces the fastest-w gather for flexible
	// schemes with the Sec. IV deadline policy: each step the master
	// accepts every gradient that arrives within Deadline of the step
	// broadcast and then proceeds (waiting for at least one arrival).
	// Rigid schemes (Sync-SGD, classic GC) ignore it.
	Deadline time.Duration
	// MaxSteps bounds the run.
	MaxSteps int
	// LossThreshold stops early when reached (0 disables).
	LossThreshold float64
	// Seed initializes the parameters (must match the workers' data seed
	// discipline).
	Seed int64
	// AcceptTimeout bounds how long the master waits for all workers to
	// register (default 10s).
	AcceptTimeout time.Duration
	// StepTimeout, when positive, bounds a single step's gather even when
	// every worker is alive — the guard against workers that heartbeat
	// but never upload (lossy links, FaultDrop). On expiry a flexible
	// scheme proceeds with whatever arrived (marked degraded) and a rigid
	// scheme fails with a diagnostic. 0 disables.
	StepTimeout time.Duration
	// LivenessTimeout declares a worker dead when nothing (gradient or
	// heartbeat) has been received from it for this long; its connection
	// is closed and the gather target degrades if the scheme permits.
	// Default 15s; negative disables the monitor (reader-exit detection
	// still catches closed connections).
	LivenessTimeout time.Duration
	// WriteTimeout bounds each outbound send (default 5s; negative
	// disables).
	WriteTimeout time.Duration
	// ComputePar sizes the master's loss-evaluation compute pool: the
	// full-dataset loss each step is sharded across this many goroutines.
	// 0 picks GOMAXPROCS, 1 forces the sequential evaluation. Sharding
	// reassociates the loss mean's floating-point sum, so runs with
	// different settings may differ in loss bits (never in parameters —
	// the master's update never touches the pool).
	ComputePar int
	// DecodeCache, when positive, memoizes decode results in an LRU of
	// that many availability masks — strategies that implement
	// engine.DecodeCacher (IS-GC) only. Hits and misses land on the
	// isgc_master_decode_cache_* counters.
	DecodeCache int
	// IncrementalDecode, when true, repairs the previous step's chosen
	// set against the availability delta instead of re-solving —
	// strategies that implement engine.IncrementalDecoder (IS-GC) only.
	// Repairs and fallbacks land on the isgc_master_decode_repairs/
	// fallbacks counters.
	IncrementalDecode bool
	// Staleness, when positive, is the bounded-staleness window k: the
	// gather target drops to max(1, waitFor−k) and a decoded step stays
	// correctable for k more steps — a straggler gradient arriving while
	// a later step gathers folds into the parameters as the exact
	// correction that retroactively includes it in its own step's
	// normalized update. Requires a flexible scheme and excludes Deadline.
	Staleness int
	// Metrics, when non-nil, receives live instrumentation (gather
	// latency, recovered fraction, liveness, evictions); serve it via the
	// admin package. One MasterMetrics per master.
	Metrics *MasterMetrics
	// Events, when non-nil, receives the structured event stream
	// (registrations, evictions, rejoins, degraded steps). Nil disables
	// event logging with no overhead beyond a branch per call site.
	Events *events.Log
	// Timeline, when non-nil, collects per-step and per-worker spans for
	// Chrome trace export. Nil disables span collection.
	Timeline *events.Timeline
	// Checkpoint, when non-nil, persists durable run snapshots (params,
	// step, decoder RNG position, cursors) every CheckpointEvery steps,
	// on graceful Stop, and once more — marked Completed — when the run
	// finishes. A periodic snapshot is taken at its step boundary and
	// written behind the loop, so it is durable at most one period plus one
	// write later; Stop and Run's return wait for it. The same store
	// carries the primary-liveness lease a warm standby watches.
	Checkpoint *checkpoint.Store
	// CheckpointEvery is the checkpoint period in steps (default 10 when
	// Checkpoint is set).
	CheckpointEvery int
	// Restore resumes from Checkpoint's newest valid snapshot when one
	// exists; a fresh directory cold-starts. The resumed run's records
	// and final params are bit-identical to an uninterrupted run from the
	// checkpoint boundary on, provided the fleet and config match (see
	// DESIGN.md "Durability" for the exact conditions).
	Restore bool
	// LeaseTTL is the primary-liveness lease's time-to-live (default 5s).
	// The master renews every TTL/3; a standby takes over when the lease
	// lapses for a full TTL or is released on graceful exit.
	LeaseTTL time.Duration
}

// workerState is the master's per-worker liveness view. gen increments on
// every (re-)registration so a stale reader goroutine cannot mark a
// reborn worker's fresh connection dead.
type workerState struct {
	c        *conn
	alive    bool
	lastSeen time.Time
	gen      int
}

// Master orchestrates distributed training over TCP and survives worker
// loss: it tracks per-worker liveness, degrades the gather target when a
// flexible scheme can decode the alive subset, fails fast for rigid
// schemes, and accepts mid-run rejoins.
type Master struct {
	cfg MasterConfig
	ln  net.Listener

	mu        sync.Mutex
	workers   []*workerState
	done      bool // training over: reject further registrations
	running   bool // a step has been broadcast: rejoiners get it re-sent
	curStep   int
	curParams []float64
	rejoins   int
	degraded  int // degraded steps so far (live view for Health)

	grads  chan arrival
	wakeup chan struct{} // liveness-changed signal for the gather loop
	quit   chan struct{} // closed when Run finishes; unblocks readers

	// stop is closed by Stop(): the gather loop winds down at the next
	// step boundary, writes a final resumable checkpoint, and Run returns
	// with Result.Interrupted — without telling the fleet to exit, so a
	// successor master can adopt the same workers.
	stop     chan struct{}
	stopOnce sync.Once
	// generation counts master lives for this run: 0 on a cold start, +1
	// per restore or failover. Guarded by mu.
	generation int
	runID      string
	// lastCkptStep/lastCkptUnixNano feed the /healthz last-checkpoint
	// fields and the last-checkpoint-step gauge (-1/0 = none yet).
	lastCkptStep     atomic.Int64
	lastCkptUnixNano atomic.Int64

	// accepted[i] counts the steps in which worker i's gradient was
	// gathered before the cut-off — the per-worker availability view an
	// operator uses to spot enduring stragglers. Atomic because the
	// admin server's Health snapshot reads it while the training loop
	// writes.
	accepted []atomic.Int64
	// malformed counts gradients rejected before decoding (wrong
	// dimension, bad worker id) — a nonzero value flags a misconfigured
	// or hostile worker. Atomic for the same live-read reason.
	malformed atomic.Int64
	// attribution accumulates per-worker arrival/compute samples for the
	// straggler-attribution report.
	attribution *trace.Attribution

	// vecs is the free list of received gradient vectors: each is its reader's
	// until delivered, then the step loop's until Update, Fold or ignore.
	vecs vecPool

	// bcastConns and bcastFrames are broadcast's scratch — the connection
	// snapshot and the shared frame headers — reused across calls so a
	// steady-state broadcast allocates nothing. Run's goroutine only.
	bcastConns  []bcastTarget
	bcastFrames frameCache
}

// ArrivalCounts returns, per worker, how many steps gathered that worker's
// gradient. Valid after Run returns.
func (m *Master) ArrivalCounts() []int {
	out := make([]int, len(m.accepted))
	for i := range m.accepted {
		out[i] = int(m.accepted[i].Load())
	}
	return out
}

// Rejoins returns how many mid-run re-registrations the master accepted.
// Valid after Run returns.
func (m *Master) Rejoins() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rejoins
}

// MalformedGradients returns how many gradient envelopes were rejected
// before decoding. Valid after Run returns.
func (m *Master) MalformedGradients() int { return int(m.malformed.Load()) }

// AttributionReport returns the per-worker straggler attribution
// accumulated so far — chosen vs. ignored deliveries and compute vs.
// arrival latency percentiles. Safe to call at any time.
func (m *Master) AttributionReport() trace.AttributionReport {
	return m.attribution.Report()
}

// gradientSink is worker id's binary connection's payloadSink: a
// gradient of the model's dimension lands in a free-list vector; any other
// kind or length is declined — drained, not allocated.
func (m *Master) gradientSink(id int) payloadSink {
	return func(fh frameHeader) []float64 {
		if fh.kind != MsgGradient {
			return nil
		}
		if fh.dim != m.vecs.dim {
			m.malformedGradient(fh.step, id, fh.dim)
			return nil
		}
		return m.vecs.get()
	}
}

// malformedGradient counts a gradient whose length would panic Recover/AXPY.
func (m *Master) malformedGradient(step, worker, gotDim int) {
	m.malformed.Add(1)
	m.cfg.Metrics.markMalformed()
	m.cfg.Events.Warn("master.malformed_gradient", "gradient rejected before decode",
		step, worker, events.Fields{"got_dim": gotDim, "want_dim": m.vecs.dim})
}

// arrival is one gradient delivery tagged with its origin and timing:
// recvAt is stamped on the master's clock when the envelope is read, and
// the compute fields carry the worker's self-reported timing from the
// envelope (zero when the worker did not report).
type arrival struct {
	worker       int
	step         int
	coded        []float64
	recvAt       time.Time
	computeStart time.Time
	computeDur   time.Duration
}

// NewMaster starts listening; workers may connect immediately after.
func NewMaster(cfg MasterConfig) (*Master, error) {
	switch {
	case cfg.Strategy == nil:
		return nil, fmt.Errorf("cluster: nil strategy")
	case cfg.Model == nil:
		return nil, fmt.Errorf("cluster: nil model")
	case cfg.Data == nil:
		return nil, fmt.Errorf("cluster: nil dataset")
	case cfg.LearningRate <= 0:
		return nil, fmt.Errorf("cluster: need LearningRate > 0")
	case cfg.MaxSteps <= 0:
		return nil, fmt.Errorf("cluster: need MaxSteps > 0")
	}
	if cfg.AcceptTimeout <= 0 {
		cfg.AcceptTimeout = 10 * time.Second
	}
	if cfg.LivenessTimeout == 0 {
		cfg.LivenessTimeout = 15 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = defaultWriteTimeout
	}
	if cfg.WriteTimeout < 0 {
		cfg.WriteTimeout = 0
	}
	if cfg.Checkpoint != nil && cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 10
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 5 * time.Second
	}
	if err := engine.CheckStaleness(cfg.Strategy, cfg.Staleness, true, cfg.Deadline); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if err := model.CheckData(cfg.Model, cfg.Data); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	if cfg.ComputePar < 0 {
		return nil, fmt.Errorf("cluster: need ComputePar ≥ 0, got %d", cfg.ComputePar)
	}
	if cfg.DecodeCache > 0 {
		if dc, ok := cfg.Strategy.(engine.DecodeCacher); ok {
			dc.SetDecodeCacheHooks(cfg.Metrics.decodeCacheHooks())
			dc.EnableDecodeCache(cfg.DecodeCache)
		}
	}
	if cfg.IncrementalDecode {
		if id, ok := cfg.Strategy.(engine.IncrementalDecoder); ok {
			id.SetIncrementalHooks(cfg.Metrics.incrementalDecodeHooks())
			id.EnableIncrementalDecode()
		}
	}
	n := cfg.Strategy.N()
	m := &Master{cfg: cfg, ln: ln, attribution: trace.NewAttribution(n),
		stop: make(chan struct{}),
		// Up to n vectors wait in coded while the readers fill the next n.
		vecs: vecPool{dim: cfg.Model.Dim(), free: make(chan []float64, 2*n)}}
	m.lastCkptStep.Store(-1)
	m.runID = fmt.Sprintf("run-%d", time.Now().UnixNano())
	if cfg.Checkpoint != nil {
		cfg.Checkpoint.SetSkipHook(func(file string, reason error) {
			m.cfg.Metrics.markRestoreSkipped()
			m.cfg.Events.Warn("master.checkpoint_restore_skipped", "corrupt checkpoint skipped during restore",
				events.NoStep, events.NoWorker, events.Fields{"file": file, "reason": reason.Error()})
		})
	}
	cfg.Metrics.bind(m)
	return m, nil
}

// Stop requests a graceful shutdown: the training loop winds down at the
// next step boundary (or mid-gather, abandoning the in-flight step), writes
// a final resumable checkpoint when one is configured, and Run returns with
// Result.Interrupted set. The fleet is NOT told to exit — workers keep
// their reconnect loops alive so a restarted or standby master can adopt
// them. Safe to call from any goroutine, any number of times, including
// before Run.
func (m *Master) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
}

// errInterrupted is the gather loops' sentinel for "Stop() was called":
// the training loop converts it into a checkpoint + clean return rather
// than an error.
var errInterrupted = errors.New("cluster: run interrupted")

// Health returns a point-in-time snapshot of the master's liveness view —
// the /healthz payload. Safe to call from any goroutine at any time
// (before Run it reports an empty worker list).
func (m *Master) Health() MasterHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	h := MasterHealth{
		Running:            m.running && !m.done,
		Step:               m.curStep,
		Generation:         m.generation,
		DegradedSteps:      m.degraded,
		Rejoins:            m.rejoins,
		MalformedGradients: m.malformed.Load(),
		LastCheckpointStep: int(m.lastCkptStep.Load()),
		Workers:            make([]WorkerHealthView, len(m.workers)),
	}
	if at := m.lastCkptUnixNano.Load(); at > 0 {
		h.LastCheckpointAgeSeconds = now.Sub(time.Unix(0, at)).Seconds()
	} else {
		h.LastCheckpointAgeSeconds = -1
	}
	h.GatherP50Seconds, h.GatherP95Seconds = m.cfg.Metrics.gatherQuantiles()
	for i, ws := range m.workers {
		v := WorkerHealthView{ID: i, LastSeenAgeSeconds: -1, Generation: -1}
		if i < len(m.accepted) {
			v.AcceptedSteps = m.accepted[i].Load()
		}
		if ws != nil {
			v.Alive = ws.alive
			v.LastSeenAgeSeconds = now.Sub(ws.lastSeen).Seconds()
			v.Generation = ws.gen
			if ws.alive {
				h.AliveWorkers++
			}
		}
		h.Workers[i] = v
	}
	return h
}

// maxHeartbeatAge returns the age in seconds of the stalest alive
// worker's last message (0 when no worker is alive) — the scrape-time
// heartbeat-lag gauge.
func (m *Master) maxHeartbeatAge() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	max := 0.0
	for _, ws := range m.workers {
		if ws != nil && ws.alive {
			if age := now.Sub(ws.lastSeen).Seconds(); age > max {
				max = age
			}
		}
	}
	return max
}

// Addr returns the actual listen address (useful with ":0").
func (m *Master) Addr() string { return m.ln.Addr().String() }

// Run accepts the n workers, trains, shuts the workers down, and returns
// the run result. It blocks until training finishes or fails, and — unlike
// a naive gather — it cannot hang forever on dead workers: connection loss
// and liveness timeouts feed the gather loop, which degrades or errors out.
func (m *Master) Run() (*engine.Result, error) {
	n := m.cfg.Strategy.N()
	m.cfg.Events.Info("master.run_started", "master listening", events.NoStep, events.NoWorker,
		events.Fields{"addr": m.Addr(), "scheme": m.cfg.Strategy.Name(), "workers": n})
	m.cfg.Timeline.SetThreadName(0, "master")
	for i := 0; i < n; i++ {
		m.cfg.Timeline.SetThreadName(i+1, fmt.Sprintf("worker %d", i))
	}
	if m.cfg.Checkpoint != nil {
		m.cfg.Timeline.SetThreadName(n+1, "checkpoint")
	}
	m.grads = make(chan arrival, 8*n)
	m.wakeup = make(chan struct{}, 1)
	m.quit = make(chan struct{})
	// The admin server may snapshot Health concurrently with Run's setup,
	// so the shared slices appear under the lock.
	m.mu.Lock()
	m.workers = make([]*workerState, n)
	m.accepted = make([]atomic.Int64, n)
	m.mu.Unlock()

	var readers sync.WaitGroup
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		m.acceptLoop(&readers)
	}()
	if m.cfg.LivenessTimeout > 0 {
		go m.monitorLiveness()
	}
	leaseDone := make(chan struct{})
	if m.cfg.Checkpoint != nil {
		go func() {
			defer close(leaseDone)
			m.renewLease()
		}()
	} else {
		close(leaseDone)
	}

	var res *engine.Result
	err := m.awaitFleet(n)
	if err == nil {
		res, err = m.run()
	}
	interrupted := res != nil && res.Interrupted
	switch {
	case err != nil:
		m.cfg.Events.Error("master.run_finished", "training failed", events.NoStep, events.NoWorker,
			events.Fields{"error": err.Error()})
	case interrupted:
		m.cfg.Events.Info("master.interrupted", "run stopped gracefully; fleet left running", events.NoStep,
			events.NoWorker, events.Fields{"steps": res.Run.Steps()})
	default:
		m.cfg.Events.Info("master.run_finished", "training finished", events.NoStep, events.NoWorker,
			events.Fields{"steps": res.Run.Steps(), "converged": res.Converged})
	}

	// Shutdown order matters: refuse further registrations, say goodbye,
	// stop accepting, then close every connection so readers drain. An
	// interrupted master says no goodbye — the workers' reconnect loops
	// keep the fleet alive for a successor master.
	m.mu.Lock()
	m.done = true
	m.mu.Unlock()
	if !interrupted {
		m.broadcast(&Envelope{Kind: MsgStop})
	}
	close(m.quit)
	<-leaseDone
	if m.cfg.Checkpoint != nil {
		// Released only on graceful exit: a standby may take over
		// immediately instead of waiting out the TTL. A crashed master
		// never reaches this line, which is the point of the lease.
		if lerr := m.cfg.Checkpoint.ReleaseLease(); lerr != nil {
			m.cfg.Events.Warn("master.lease_release_failed", "could not remove lease file",
				events.NoStep, events.NoWorker, events.Fields{"error": lerr.Error()})
		}
	}
	m.ln.Close()
	<-acceptDone
	m.closeAll()
	readers.Wait()
	return res, err
}

// renewLease marks this master as the live primary in the checkpoint
// directory until Run shuts down. Renewal failures are logged, not fatal —
// a wedged disk should not kill training, though it may trigger a standby.
func (m *Master) renewLease() {
	ttl := m.cfg.LeaseTTL
	holder := fmt.Sprintf("pid%d@%s", os.Getpid(), m.Addr())
	write := func() {
		if err := m.cfg.Checkpoint.WriteLease(holder, ttl); err != nil {
			m.cfg.Events.Warn("master.lease_renew_failed", "could not renew liveness lease",
				events.NoStep, events.NoWorker, events.Fields{"error": err.Error()})
		}
	}
	write()
	t := time.NewTicker(ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-t.C:
			write()
		}
	}
}

// acceptLoop serves registrations (initial and rejoin) until the listener
// closes.
func (m *Master) acceptLoop(readers *sync.WaitGroup) {
	for {
		raw, err := m.ln.Accept()
		if err != nil {
			return // listener closed: Run is shutting down
		}
		m.handshake(raw, readers)
	}
}

// handshake validates the connection's first frame, a hello, and registers
// (or re-registers) the worker. Anything else — bytes that are not a
// version-1 frame, another kind, an out-of-range or duplicate id — closes the
// connection without a reply but keeps the cluster running: a reborn worker
// must not be able to kill the master, and neither must a stranger.
func (m *Master) handshake(raw net.Conn, readers *sync.WaitGroup) {
	n := m.cfg.Strategy.N()
	c := newConn(raw, m.cfg.WriteTimeout, m.cfg.Metrics.sentCounter())
	c.sink = declinePayload
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	hello, err := c.recv()
	if err != nil || hello.Kind != MsgHello || hello.Worker >= n {
		_ = c.close()
		return
	}
	_ = raw.SetReadDeadline(time.Time{})
	id := hello.Worker

	// A done master will never run another step: the job-gone reply stops
	// the worker burning its redial budget.
	m.mu.Lock()
	done := m.done
	m.mu.Unlock()
	if done {
		refuseJobGone(c)
		return
	}

	// The ack goes out before the connection becomes visible to broadcasts
	// and readers, so it is the first frame the worker reads. It carries the
	// staleness window so the worker knows how long a step stays usable.
	if err := c.send(&Envelope{Kind: MsgHello, Worker: id, Step: m.cfg.Staleness}); err != nil {
		_ = c.close()
		return
	}
	c.sink = m.gradientSink(id)

	m.mu.Lock()
	if m.done {
		// The master finished during the exchange.
		m.mu.Unlock()
		refuseJobGone(c)
		return
	}
	prev := m.workers[id]
	if prev != nil && prev.alive {
		// Duplicate id on a live connection: refuse the newcomer.
		m.mu.Unlock()
		_ = c.close()
		return
	}
	gen := 0
	if prev != nil {
		gen = prev.gen + 1
		m.rejoins++
		m.cfg.Metrics.markRejoin()
	}
	m.workers[id] = &workerState{c: c, alive: true, lastSeen: time.Now(), gen: gen}
	m.cfg.Metrics.setWorkerAlive(id, true)
	step := events.NoStep
	if m.running {
		step = m.curStep
	}
	var resume *Envelope
	if m.running {
		// A copy under the lock: the step loop refills curParams in place.
		resume = &Envelope{Kind: MsgStep, Step: m.curStep, Params: append([]float64(nil), m.curParams...)}
	}
	m.mu.Unlock()

	if gen > 0 {
		m.cfg.Events.Info("master.worker_rejoined", "worker re-registered mid-run", step, id,
			events.Fields{"generation": gen})
	} else {
		m.cfg.Events.Info("master.worker_registered", "worker registered", step, id, nil)
	}

	m.pokeLiveness()
	if resume != nil {
		// Mid-run rejoin: hand the worker the in-flight step immediately
		// so it can participate without waiting for the next broadcast.
		if err := c.send(resume); err != nil {
			_ = c.close() // the reader below will mark it dead
		}
	}
	readers.Add(1)
	go m.readFrom(id, gen, c, readers)
}

// refuseJobGone answers a hello to a finished master with MsgJobGone and
// closes the connection.
func refuseJobGone(c *conn) {
	_ = c.send(&Envelope{Kind: MsgJobGone})
	_ = c.close()
}

// readFrom pumps one worker connection: heartbeats refresh lastSeen,
// gradients are forwarded to the gather loop, and connection loss marks the
// worker dead and wakes the gather loop — the "reader-exit notification"
// that keeps the step loop from blocking forever on a dead fleet.
func (m *Master) readFrom(id, gen int, c *conn, readers *sync.WaitGroup) {
	defer readers.Done()
	for {
		e, err := c.recv()
		if err != nil {
			break
		}
		m.mu.Lock()
		if ws := m.workers[id]; ws != nil && ws.gen == gen {
			ws.lastSeen = time.Now()
		}
		m.mu.Unlock()
		if e.Kind == MsgGradient && !e.declined { // a declined one was counted by the sink
			if !m.deliverGradient(id, e) {
				return
			}
		}
	}
	m.mu.Lock()
	ws := m.workers[id]
	current := ws != nil && ws.gen == gen
	if current {
		ws.alive = false
	}
	step := events.NoStep
	if m.running {
		step = m.curStep
	}
	done := m.done
	m.mu.Unlock()
	if current {
		m.cfg.Metrics.setWorkerAlive(id, false)
		if !done {
			// The single authoritative eviction event: every path that kills
			// a connection (remote close, liveness timeout, failed send)
			// funnels through this reader exit.
			m.cfg.Events.Warn("master.worker_evicted", "worker connection lost", step, id,
				events.Fields{"generation": gen, "reason": "connection_lost"})
		}
		_ = c.close()
		m.pokeLiveness()
	}
}

// deliverGradient forwards one authenticated gradient envelope to the gather
// loop. Returns false when the master is shutting down.
func (m *Master) deliverGradient(id int, e *Envelope) bool {
	a := arrival{worker: id, step: e.Step, coded: e.Coded, recvAt: time.Now(),
		computeDur: time.Duration(e.ComputeDurNanos)}
	if e.ComputeStartUnixNano > 0 {
		a.computeStart = time.Unix(0, e.ComputeStartUnixNano)
	}
	// The arrival is attributed to the authenticated connection id, not
	// the envelope's claim, so a worker cannot spoof another.
	select {
	case m.grads <- a:
	case <-m.quit:
		return false
	}
	return true
}

// pokeLiveness nudges whoever is blocked on the gather/accept select to
// recompute the alive set. The channel holds one pending signal; dropping
// extras is fine because the consumer recomputes from scratch.
func (m *Master) pokeLiveness() {
	select {
	case m.wakeup <- struct{}{}:
	default:
	}
}

// monitorLiveness closes connections that have been silent for longer than
// LivenessTimeout; the reader then marks the worker dead. Heartbeats keep
// healthy-but-idle workers off this path.
func (m *Master) monitorLiveness() {
	interval := m.cfg.LivenessTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-t.C:
			now := time.Now()
			type victim struct {
				id     int
				c      *conn
				silent time.Duration
			}
			var evict []victim
			m.mu.Lock()
			for id, ws := range m.workers {
				if ws != nil && ws.alive && now.Sub(ws.lastSeen) > m.cfg.LivenessTimeout {
					evict = append(evict, victim{id: id, c: ws.c, silent: now.Sub(ws.lastSeen)})
				}
			}
			step := events.NoStep
			if m.running {
				step = m.curStep
			}
			m.mu.Unlock()
			for _, v := range evict {
				m.cfg.Metrics.markEviction()
				m.cfg.Events.Warn("master.worker_liveness_timeout", "no message within liveness timeout",
					step, v.id, events.Fields{"silent": v.silent.String(), "timeout": m.cfg.LivenessTimeout.String()})
				_ = v.c.close()
			}
		}
	}
}

// awaitFleet blocks until all n workers are registered and alive, or the
// accept timeout expires.
func (m *Master) awaitFleet(n int) error {
	deadline := time.NewTimer(m.cfg.AcceptTimeout)
	defer deadline.Stop()
	for {
		if alive := m.countAlive(); alive >= n {
			return nil
		}
		select {
		case <-m.wakeup:
		case <-deadline.C:
			return fmt.Errorf("cluster: accept (have %d/%d workers): timed out after %v",
				m.countAlive(), n, m.cfg.AcceptTimeout)
		}
	}
}

// countAlive returns the number of workers with a live connection.
func (m *Master) countAlive() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	alive := 0
	for _, ws := range m.workers {
		if ws != nil && ws.alive {
			alive++
		}
	}
	return alive
}

// achievable returns the most gradients the current step can still gather:
// those already received plus the alive workers yet to deliver. (A worker
// that uploaded and then died still contributed.)
func (m *Master) achievable(avail *bitset.Set) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	count := avail.Len()
	for id, ws := range m.workers {
		if ws != nil && ws.alive && !avail.Contains(id) {
			count++
		}
	}
	return count
}

// stepSpans is a step whose update has landed and whose finalize — loss
// evaluation, record, checkpoint cadence — is still owed: the record so far
// plus the wall-clock marks its Timeline spans need.
type stepSpans struct {
	rec trace.StepRecord
	// bcastEnd is the workers' clock: arrival attribution and the Deadline
	// count from it. gatherStart is the master's, stamped once the previous
	// step's finalize is paid, so the gather span and rec.Elapsed hold only
	// what this step's gather kept the loop waiting for.
	bcastStart, bcastEnd, gatherStart, gatherEnd, decodeEnd, updateEnd time.Time
}

// resume moves core off a cold start onto the newest durable checkpoint
// when the config asks for it.
func (m *Master) resume(core *engine.StepCore) error {
	cst, info, err := core.Restore()
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if cst != nil {
		m.mu.Lock()
		m.generation = cst.Generation + 1
		if cst.RunID != "" {
			m.runID = cst.RunID
		}
		gen := m.generation
		m.mu.Unlock()
		m.lastCkptStep.Store(int64(cst.Step))
		m.lastCkptUnixNano.Store(cst.SavedAtUnixNano)
		m.cfg.Events.Info("master.checkpoint_restored", "resumed from durable checkpoint", cst.Step,
			events.NoWorker, events.Fields{"file": info.File, "generation": gen, "completed": cst.Completed})
	}
	return nil
}

// run is the step loop: broadcast → gather → decode → update, with every
// decision about the update, the staleness window, the record and the
// checkpoint cadence made by the engine's step core. Nothing else stays on
// the critical path. Step t's finalize — loss evaluation, record, checkpoint
// cadence — is owed until step t+1's broadcast is out and runs under the
// fleet's compute window, on the parameter bits it would have seen inline (a
// broadcast writes nothing); a periodic checkpoint is snapshotted at its
// boundary and written behind the loop. The one policy is the gather:
// fastest-w or, for a flexible scheme under Deadline, the deadline policy.
// Staleness k lowers the gather target to max(1, waitFor−k) and lets the
// core fold a late upload for any of the k newest decoded steps.
//
// A run that converges on the loss threshold learns so from step t's
// deferred loss, after step t+1's broadcast: the fleet is left one trailing
// step nobody gathers, which MsgStop makes it abandon.
func (m *Master) run() (*engine.Result, error) {
	st := m.cfg.Strategy
	n := st.N()
	core := engine.NewStepCore(&engine.Config{
		Strategy: st, LearningRate: m.cfg.LearningRate, W: m.cfg.W, Staleness: m.cfg.Staleness,
		MaxSteps: m.cfg.MaxSteps, LossThreshold: m.cfg.LossThreshold, Seed: m.cfg.Seed, Events: m.cfg.Events,
		Checkpoint: m.cfg.Checkpoint, CheckpointEvery: m.cfg.CheckpointEvery, Restore: m.cfg.Restore,
	}, m.cfg.Model.InitParams(m.cfg.Seed))
	if err := m.resume(core); err != nil || core.Completed() {
		return core.Result(), err
	}
	params := core.Params()
	dim := len(params)
	all := make([]dataset.Sample, m.cfg.Data.Len())
	for i := range all {
		all[i] = m.cfg.Data.At(i)
	}
	// The per-step full-dataset loss is the master's only heavy compute;
	// shard it across a long-lived pool.
	pool := model.NewParallelGrad(m.cfg.ComputePar)
	defer pool.Close()
	m.cfg.Metrics.setComputeShards(pool.Par())

	// Deadline mode and graceful degradation apply only to flexible
	// schemes: a rigid scheme reports the same WaitFor for every target
	// and cannot decode a smaller subset.
	flexible := st.WaitFor(1) != st.WaitFor(n)
	useDeadline := m.cfg.Deadline > 0 && flexible
	target := st.WaitFor(m.cfg.W)
	if m.cfg.Staleness > 0 {
		if target -= m.cfg.Staleness; target < 1 {
			target = 1
		}
	}

	ckpt := checkpointWriter{m: m}
	// Every return joins the writer: Run returning means nobody touches the
	// store any more.
	defer ckpt.join()

	finalize := func(d stepSpans) (converged bool) {
		lossStart := time.Now()
		loss := pool.Loss(params, m.cfg.Model, all)
		rec := d.rec
		if tl := m.cfg.Timeline; tl != nil {
			lossEnd := time.Now()
			stepArgs := map[string]any{"gathered": rec.Available, "recovered": len(rec.Partitions), "degraded": rec.Degraded}
			if rec.Folded > 0 {
				stepArgs["folded"] = rec.Folded
			}
			tl.Add(events.Span{Name: fmt.Sprintf("step %d", rec.Step), Cat: "step",
				Start: d.bcastStart, Dur: d.updateEnd.Sub(d.bcastStart), Args: stepArgs})
			tl.Add(events.Span{Name: "broadcast", Cat: "phase", Start: d.bcastStart, Dur: d.bcastEnd.Sub(d.bcastStart)})
			tl.Add(events.Span{Name: "gather", Cat: "phase", Start: d.gatherStart, Dur: rec.Elapsed})
			tl.Add(events.Span{Name: "decode", Cat: "phase", Start: d.gatherEnd, Dur: d.decodeEnd.Sub(d.gatherEnd)})
			tl.Add(events.Span{Name: "update", Cat: "phase", Start: d.decodeEnd, Dur: d.updateEnd.Sub(d.decodeEnd)})
			// The loss overlaps the next step's compute window, so its span
			// lies outside its own step span.
			tl.Add(events.Span{Name: "loss", Cat: "phase", Start: lossStart, Dur: lossEnd.Sub(lossStart),
				Args: map[string]any{"step": rec.Step}})
		}
		m.cfg.Events.Debug("master.step_completed", "step finished", rec.Step, events.NoWorker,
			events.Fields{"gathered": rec.Available, "recovered": len(rec.Partitions),
				"degraded": rec.Degraded, "loss": loss, "elapsed": rec.Elapsed.String()})
		rec.Loss = loss
		converged, checkpointDue := core.Finish(rec)
		if checkpointDue {
			ckpt.writeBehind(core, rec.Step+1)
		}
		return converged
	}
	// interrupted ends a stopped run before step: the parameters are the
	// post-step-(step−1) state plus any landed folds, so the checkpoint
	// resumes at step — unless the periodic checkpoint of this very
	// boundary, joined first since it may still be in flight, already holds
	// it.
	interrupted := func(step int) (*engine.Result, error) {
		res := core.Result()
		res.Interrupted = true
		if m.cfg.Checkpoint != nil {
			ckpt.join()
			if m.lastCkptStep.Load() != int64(step) {
				ckpt.writeNow(core, step, false)
			}
		}
		return res, nil
	}

	// coded[i] is worker i's gathered upload, the loop's until Update returns.
	coded := make([][]float64, n)
	// The previous step is owed its finalize until this step's broadcast is
	// out; settle pays it and reports convergence.
	var owed stepSpans
	var isOwed bool
	settle := func() bool {
		due := isOwed
		isOwed = false
		return due && finalize(owed)
	}
steps:
	for step := core.StartStep(); step < m.cfg.MaxSteps; step++ {
		select {
		case <-m.stop:
			if settle() {
				// The deferred record converged: the run finished on its own
				// before the stop could take effect.
				break steps
			}
			return interrupted(step)
		default:
		}
		m.mu.Lock()
		m.running = true
		m.curStep = step
		// Rejoin handshakes read curParams concurrently with the updates
		// below, so it is a copy — into the same buffer every step.
		m.curParams = append(m.curParams[:0], params...)
		m.mu.Unlock()
		bcastStart := time.Now()
		m.broadcast(&Envelope{Kind: MsgStep, Step: step, Params: params})
		bcastEnd := time.Now()
		if settle() {
			break
		}
		// Only now does this step's gather keep the loop waiting.
		gatherStart := time.Now()

		avail := bitset.New(n)
		accept := func(a arrival) {
			if a.step != step || a.worker < 0 || a.worker >= n || avail.Contains(a.worker) {
				if r, ok := core.Fold(a.step, a.worker, a.coded); ok {
					m.accepted[a.worker].Add(1)
					m.cfg.Metrics.markAccepted(a.worker)
					m.cfg.Metrics.markFolded()
					m.attribution.ObserveAccepted(trace.ArrivalSample{Worker: a.worker, Step: a.step, Compute: a.computeDur})
					m.cfg.Events.Debug("master.gradient_folded", "late gradient folded into parameters",
						a.step, a.worker, events.Fields{"partitions": len(st.Partitions(a.worker)), "normalizer": r})
				} else if a.worker >= 0 && a.worker < n {
					// Stale or duplicate delivery outside the fold window: the
					// work was done but the master cannot use it — the "ignored"
					// column of the attribution report. A duplicate's arrival is
					// measured against the current broadcast; a stale gradient
					// has no valid baseline, so its latency stays unmeasured.
					s := trace.ArrivalSample{Worker: a.worker, Step: step, Compute: a.computeDur}
					if a.step == step {
						s.Arrival = a.recvAt.Sub(bcastEnd)
					}
					m.attribution.ObserveIgnored(s)
				}
				m.vecs.put(a.coded)
				return
			}
			if len(a.coded) != dim {
				m.malformedGradient(step, a.worker, len(a.coded))
				return
			}
			avail.Add(a.worker)
			coded[a.worker] = a.coded
			m.accepted[a.worker].Add(1)
			m.cfg.Metrics.markAccepted(a.worker)
			m.attribution.ObserveAccepted(trace.ArrivalSample{
				Worker: a.worker, Step: step,
				Compute: a.computeDur, Arrival: a.recvAt.Sub(bcastEnd),
			})
			if a.computeDur > 0 && !a.computeStart.IsZero() {
				// The worker's self-reported compute interval, rendered on
				// its own track. The start stamp is the worker's clock —
				// on one machine that is the same clock; across machines
				// skew shifts the span without changing its length.
				m.cfg.Timeline.Add(events.Span{
					Name: "compute", Cat: "compute", TID: a.worker + 1,
					Start: a.computeStart, Dur: a.computeDur,
					Args: map[string]any{"step": step},
				})
			}
		}

		var degraded bool
		var err error
		if useDeadline {
			err = m.gatherDeadline(step, n, bcastEnd.Add(m.cfg.Deadline), avail, accept)
		} else {
			degraded, err = m.gatherFastest(step, n, target, flexible, avail, accept)
		}
		if errors.Is(err, errInterrupted) {
			// Stopped mid-gather: the parameters are still this step's
			// pre-update state, so the next life replays step.
			return interrupted(step)
		}
		if err != nil {
			return core.Result(), err
		}
		gatherEnd := time.Now()
		elapsed := gatherEnd.Sub(gatherStart)
		if degraded {
			m.mu.Lock()
			m.degraded++
			m.mu.Unlock()
			m.cfg.Events.Warn("master.step_degraded", "gather target shrank below configured wait",
				step, events.NoWorker, events.Fields{"gathered": avail.Len(), "configured": target})
		}

		dec, err := core.Decode(step, avail, coded)
		if err != nil {
			return core.Result(), fmt.Errorf("cluster: %w", err)
		}
		decodeEnd := time.Now()
		m.cfg.Metrics.observeStep(elapsed, float64(len(dec.Parts))/float64(n), degraded)
		rec, err := core.Update(dec)
		if err != nil {
			return core.Result(), fmt.Errorf("cluster: %w", err)
		}
		// Recover kept nothing of coded: the readers may fill these again.
		for i, v := range coded {
			m.vecs.put(v)
			coded[i] = nil
		}
		rec.Alive, rec.Degraded, rec.Elapsed = m.countAlive(), degraded, elapsed
		owed, isOwed = stepSpans{rec: rec, bcastStart: bcastStart, bcastEnd: bcastEnd, gatherStart: gatherStart,
			gatherEnd: gatherEnd, decodeEnd: decodeEnd, updateEnd: time.Now()}, true
	}
	settle()
	if m.cfg.Checkpoint != nil {
		ckpt.writeNow(core, core.NextStep(), true)
	}
	return core.Result(), nil
}

// checkpointWriter takes Store.Save off the step loop. The snapshot — the
// parameter bits copied into buffers the core rewrites at its next Snapshot,
// which is why snapshot joins the write in flight first — is taken on the
// loop at the step boundary; the marshal and the fsyncs run behind it, at
// most one write in flight, so the loop blocks only when the next write
// comes due first.
// Failures are counted and logged but do not stop training — losing
// durability is better than losing the run. The step loop alone calls its
// methods.
type checkpointWriter struct {
	m *Master
	// inflight is closed when the background write has finished; nil when
	// none is outstanding.
	inflight chan struct{}
}

// join waits out the write in flight, if any, and reports how long the loop
// was blocked on it.
func (w *checkpointWriter) join() time.Duration {
	if w.inflight == nil {
		return 0
	}
	var waited time.Duration
	select {
	case <-w.inflight:
	default:
		start := time.Now()
		<-w.inflight
		waited = time.Since(start)
	}
	w.inflight = nil
	return waited
}

// snapshot joins the write in flight, takes core's snapshot as the checkpoint
// that resumes at nextStep, and returns the function that saves it.
// lastCkptStep, the metrics and the events move when the file is durable.
func (w *checkpointWriter) snapshot(core *engine.StepCore, nextStep int, completed bool) (save func()) {
	m := w.m
	waited := w.join()
	start := time.Now()
	cst := core.Snapshot(nextStep, completed, start)
	m.mu.Lock()
	cst.RunID, cst.Generation = m.runID, m.generation
	m.mu.Unlock()
	return func() {
		info, err := m.cfg.Checkpoint.Save(nextStep, &cst)
		if tl := m.cfg.Timeline; tl != nil {
			args := map[string]any{"step": nextStep}
			if waited > 0 {
				args["waited_ms"] = float64(waited) / float64(time.Millisecond)
			}
			tl.Add(events.Span{Name: "checkpoint", Cat: "checkpoint", TID: m.cfg.Strategy.N() + 1,
				Start: start, Dur: time.Since(start), Args: args})
		}
		if err != nil {
			m.cfg.Metrics.markCheckpointError()
			m.cfg.Events.Error("master.checkpoint_error", "checkpoint write failed", nextStep,
				events.NoWorker, events.Fields{"error": err.Error()})
			return
		}
		m.lastCkptStep.Store(int64(nextStep))
		m.lastCkptUnixNano.Store(time.Now().UnixNano())
		m.cfg.Metrics.markCheckpointWrite(info.Size, nextStep)
		m.cfg.Events.Info("master.checkpoint_written", "durable checkpoint saved", nextStep,
			events.NoWorker, events.Fields{"file": info.File, "bytes": info.Size, "completed": completed})
	}
}

// writeBehind saves a periodic checkpoint behind the loop.
func (w *checkpointWriter) writeBehind(core *engine.StepCore, nextStep int) {
	save := w.snapshot(core, nextStep, false)
	done := make(chan struct{})
	w.inflight = done
	go func() {
		defer close(done)
		save()
	}()
}

// writeNow saves the checkpoint a Stop or the end of the run stands on
// before returning.
func (w *checkpointWriter) writeNow(core *engine.StepCore, nextStep int, completed bool) {
	w.snapshot(core, nextStep, completed)()
}

// gatherFastest implements the fastest-w gather with graceful degradation:
// when fewer than waitFor gradients remain achievable, a flexible scheme
// shrinks its target to the achievable set (IS-GC decodes any subset) and
// the step is marked degraded; a rigid scheme fails fast with a diagnostic
// instead of hanging forever.
func (m *Master) gatherFastest(step, n, waitFor int, flexible bool, avail *bitset.Set, accept func(arrival)) (bool, error) {
	var timeout <-chan time.Time
	if m.cfg.StepTimeout > 0 {
		timer := time.NewTimer(m.cfg.StepTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	for {
		target := waitFor
		if reachable := m.achievable(avail); reachable < waitFor {
			if !flexible {
				return false, fmt.Errorf(
					"cluster: step %d: only %d of %d workers reachable; rigid scheme %s needs %d — failing fast",
					step, m.countAlive(), n, m.cfg.Strategy.Name(), waitFor)
			}
			if reachable == 0 {
				return false, fmt.Errorf("cluster: step %d: all %d workers lost", step, n)
			}
			target = reachable
		}
		if avail.Len() >= target {
			return avail.Len() < waitFor, nil
		}
		select {
		case a := <-m.grads:
			accept(a)
		case <-m.wakeup:
			// Liveness changed: recompute the target on the next pass.
		case <-m.stop:
			return false, errInterrupted
		case <-timeout:
			// Alive workers exist but the gradients are not coming (lossy
			// links, drop faults): proceed degraded rather than stall.
			if flexible && !avail.Empty() {
				return true, nil
			}
			return false, fmt.Errorf(
				"cluster: step %d: gathered %d of %d needed gradients within %v (scheme %s)",
				step, avail.Len(), waitFor, m.cfg.StepTimeout, m.cfg.Strategy.Name())
		}
	}
}

// gatherDeadline implements the Sec. IV deadline policy with liveness
// awareness: accept everything until the deadline, stop early when no more
// gradients can arrive, and — when nobody beat the deadline — block for
// the first arrival only while someone is alive to produce it.
func (m *Master) gatherDeadline(step, n int, deadline time.Time, avail *bitset.Set, accept func(arrival)) error {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
gather:
	for avail.Len() < n {
		if m.achievable(avail) <= avail.Len() {
			break // every remaining worker is dead; waiting is pointless
		}
		// What is already queued arrived while the previous step's finalize
		// ran, and counts even when that outlasted the deadline.
		select {
		case a := <-m.grads:
			accept(a)
			continue
		default:
		}
		select {
		case a := <-m.grads:
			accept(a)
		case <-m.wakeup:
		case <-m.stop:
			return errInterrupted
		case <-timer.C:
			break gather
		}
	}
	// The step must make progress: if nobody beat the deadline, block for
	// the first arrival of this step — but only while someone is alive to
	// produce it, and never past the step timeout.
	var timeout <-chan time.Time
	if m.cfg.StepTimeout > 0 {
		t := time.NewTimer(m.cfg.StepTimeout)
		defer t.Stop()
		timeout = t.C
	}
	for avail.Empty() {
		if m.countAlive() == 0 {
			return fmt.Errorf("cluster: step %d: all %d workers lost", step, n)
		}
		select {
		case a := <-m.grads:
			accept(a)
		case <-m.wakeup:
		case <-m.stop:
			return errInterrupted
		case <-timeout:
			return fmt.Errorf("cluster: step %d: no gradient within step timeout %v", step, m.cfg.StepTimeout)
		}
	}
	return nil
}

// bcastTarget is one connection of a broadcast's snapshot.
type bcastTarget struct {
	id int
	c  *conn
}

// broadcast sends e to every live worker. The connection list is
// snapshotted under the lock but the sends happen outside it, each under
// its connection's own send lock and write timeout, so one stalled socket
// can neither wedge registration/shutdown paths nor stall the other workers;
// a failed send evicts the connection (its reader marks the worker dead).
// Every connection writes the same bytes: e's header is encoded once, not
// once per worker.
func (m *Master) broadcast(e *Envelope) {
	m.mu.Lock()
	conns := m.bcastConns[:0]
	for id, ws := range m.workers {
		if ws != nil && ws.alive {
			conns = append(conns, bcastTarget{id: id, c: ws.c})
		}
	}
	m.mu.Unlock()
	m.bcastConns = conns
	m.bcastFrames.reset(e)
	for _, t := range conns {
		if err := t.c.sendShared(&m.bcastFrames); err != nil {
			m.cfg.Metrics.markEviction()
			if e.Kind != MsgStop {
				m.cfg.Events.Warn("master.worker_send_failed", "send failed; closing connection",
					e.Step, t.id, events.Fields{"kind": e.Kind, "error": err.Error()})
			}
			_ = t.c.close()
		}
	}
	m.bcastFrames.reset(nil)
}

func (m *Master) closeAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ws := range m.workers {
		if ws != nil {
			_ = ws.c.close()
		}
	}
}
