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
	// but never upload (lossy links, FaultDrop). It counts from the
	// broadcast's end plus Deadline under the deadline policy, else from
	// the gather's start. On expiry a flexible scheme proceeds with
	// whatever arrived (marked degraded), and a rigid scheme, or a gather
	// with nothing, fails with a diagnostic. 0 disables.
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
	// hellos holds the connections whose hello is still being read, so
	// closeAll can cut them short; once it has run (closed), a new one is
	// closed at once.
	hellos map[*conn]struct{}
	closed bool
	// regMu makes handshakes past their hello complete one at a time, so
	// registrations happen in the order their acks went out: of two hellos
	// for one id, the first one acked is the one kept.
	regMu sync.Mutex

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
	// until delivered, then the step loop's until Update or ignore.
	vecs vecPool

	// bcastConns and bcastFrames are broadcast's scratch — the connection
	// snapshot and the shared frame headers — reused across calls so a
	// steady-state broadcast allocates nothing. Run's goroutine only.
	bcastConns  []bcastTarget
	bcastFrames frameCache
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
	if err := model.CheckData(cfg.Model, cfg.Data); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	// The step core switches the decoder modes on; the hooks survive that.
	if dc, ok := cfg.Strategy.(engine.DecodeCacher); ok && cfg.DecodeCache > 0 {
		dc.SetDecodeCacheHooks(cfg.Metrics.decodeCacheHooks())
	}
	if id, ok := cfg.Strategy.(engine.IncrementalDecoder); ok && cfg.IncrementalDecode {
		id.SetIncrementalHooks(cfg.Metrics.incrementalDecodeHooks())
	}
	n := cfg.Strategy.N()
	m := &Master{cfg: cfg, ln: ln, attribution: trace.NewAttribution(n),
		stop:     make(chan struct{}),
		workers:  make([]*workerState, n),
		accepted: make([]atomic.Int64, n),
		hellos:   make(map[*conn]struct{}),
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
// (before Run it reports all n workers, none of them alive).
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
		v.AcceptedSteps = m.accepted[i].Load()
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
	// stop accepting, then close every connection, hellos still being read
	// included, so readers and handshakes drain. An
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
		// Each handshake runs on its own goroutine, so a connection that
		// sends nothing holds up no other registration for the hello
		// deadline. It counts as a reader until it returns, so Run's
		// readers.Wait covers it.
		readers.Add(1)
		go func() {
			defer readers.Done()
			m.handshake(raw, readers)
		}()
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
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		_ = c.close()
		return
	}
	m.hellos[c] = struct{}{}
	m.mu.Unlock()
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	hello, err := c.recv()
	m.mu.Lock()
	delete(m.hellos, c)
	m.mu.Unlock()
	if err != nil || hello.Kind != MsgHello || hello.Worker >= n {
		_ = c.close()
		return
	}
	_ = raw.SetReadDeadline(time.Time{})
	id := hello.Worker
	m.regMu.Lock()
	defer m.regMu.Unlock()

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
	// and readers, so it is the first frame the worker reads.
	if err := c.send(&Envelope{Kind: MsgHello, Worker: id}); err != nil {
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
	// count from it. gatherStart is the master's; the gather clock runs from
	// it but not while the previous step's finalize is paid inside the
	// gather, so the gather span and rec.Elapsed hold only what this step's
	// gather kept the loop waiting for.
	bcastStart, bcastEnd, gatherStart, gatherEnd, decodeEnd, updateEnd time.Time
}

// finalizeDebt is the finalize step t owes while step t+1 gathers. The
// gather pays it when its first frame comes off the gradient channel,
// before that frame is accepted, so the loss reads exactly the parameters
// step t+1 broadcast, and the woken fleet has started computing before the
// master does. A gather with a cut ahead pays it earlier if,
// judging by the last finalize, it would otherwise not end by the cut. When
// no frame arrives it is paid as the gather exits. Run's goroutine only.
type finalizeDebt struct {
	finalize  func(stepSpans) (converged bool)
	owed      bool
	spans     stepSpans
	converged bool
	// paid is the wall time settle has spent since the current gather began;
	// no gather clock counts it.
	paid time.Duration
	// last is how long the latest finalize took, the pay-by instant's
	// estimate of the next.
	last time.Duration
}

// settle pays what is owed, if anything, and reports whether the run has
// converged on the loss threshold.
func (d *finalizeDebt) settle() bool {
	if d.owed {
		d.owed = false
		start := time.Now()
		d.converged = d.finalize(d.spans)
		d.last = time.Since(start)
		d.paid += d.last
	}
	return d.converged
}

// errConverged ends a gather that paid a finalize which reached the loss
// threshold: the run is over and the step gathering is not decoded.
var errConverged = errors.New("cluster: converged")

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
// decision about the update, the record and the checkpoint cadence made by
// the engine's step core. Nothing else stays on the critical path. Step t's
// finalize — loss evaluation, record, checkpoint cadence — is owed until
// step t+1's gather receives its first frame (see finalizeDebt), so the
// master does not compute while the woken fleet starts to; it reads the
// parameter bits it would have seen inline (neither a broadcast nor a wait
// writes them), and a periodic checkpoint is snapshotted at its boundary and
// written behind the loop. The one policy is the gather's cut-off rule
// (gatherPolicy): fastest-w waits for the core's GatherTarget, WaitFor(w),
// and, for a flexible scheme under Deadline, the deadline policy waits for
// all n until the deadline and for one after it. An upload that is not for
// the step gathering is ignored.
//
// A run that converges on the loss threshold learns so from step t's loss,
// inside step t+1's gather: that gather ends at once and nothing of step t+1
// is decoded, and the fleet abandons the rest of it on MsgStop.
func (m *Master) run() (*engine.Result, error) {
	st := m.cfg.Strategy
	n := st.N()
	core := engine.NewStepCore(&engine.Config{
		Strategy: st, LearningRate: m.cfg.LearningRate, W: m.cfg.W,
		MaxSteps: m.cfg.MaxSteps, LossThreshold: m.cfg.LossThreshold, Seed: m.cfg.Seed, Events: m.cfg.Events,
		DecodeCache: m.cfg.DecodeCache, IncrementalDecode: m.cfg.IncrementalDecode,
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
	// The per-step full-dataset loss is the master's only heavy compute. It
	// runs in fixed sample blocks on the shared compute helpers, through the
	// evaluator engine.Train uses, so its bits match the engine's on any
	// host.
	var lossEval model.Blocked

	ckpt := checkpointWriter{m: m}
	// Every return joins the writer: Run returning means nobody touches the
	// store any more.
	defer ckpt.join()

	finalize := func(d stepSpans) (converged bool) {
		lossStart := time.Now()
		loss := lossEval.Loss(m.cfg.Model, params, all)
		rec := d.rec
		if tl := m.cfg.Timeline; tl != nil {
			lossEnd := time.Now()
			tl.Add(events.Span{Name: fmt.Sprintf("step %d", rec.Step), Cat: "step",
				Start: d.bcastStart, Dur: d.updateEnd.Sub(d.bcastStart),
				Args: map[string]any{"gathered": rec.Available, "recovered": len(rec.Partitions), "degraded": rec.Degraded}})
			tl.Add(events.Span{Name: "broadcast", Cat: "phase", Start: d.bcastStart, Dur: d.bcastEnd.Sub(d.bcastStart)})
			tl.Add(events.Span{Name: "gather", Cat: "phase", Start: d.gatherStart, Dur: rec.Elapsed})
			tl.Add(events.Span{Name: "decode", Cat: "phase", Start: d.gatherEnd, Dur: d.decodeEnd.Sub(d.gatherEnd)})
			tl.Add(events.Span{Name: "update", Cat: "phase", Start: d.decodeEnd, Dur: d.updateEnd.Sub(d.decodeEnd)})
			// The loss is paid inside the next step's gather, so its span
			// lies outside its own step span.
			tl.Add(events.Span{Name: "loss", Cat: "phase", Start: lossStart, Dur: lossEnd.Sub(lossStart),
				Args: map[string]any{"step": rec.Step}})
		}
		if m.cfg.Events.Enabled(events.LevelDebug) {
			m.cfg.Events.Debug("master.step_completed", "step finished", rec.Step, events.NoWorker,
				events.Fields{"gathered": rec.Available, "recovered": len(rec.Partitions),
					"degraded": rec.Degraded, "loss": loss, "elapsed": rec.Elapsed.String()})
		}
		rec.Loss = loss
		converged, checkpointDue := core.Finish(rec)
		if checkpointDue {
			ckpt.writeBehind(core, rec.Step+1)
		}
		return converged
	}
	// interrupted ends a stopped run before step: the parameters are the
	// post-step-(step−1) state, so the checkpoint resumes at step — unless
	// the periodic checkpoint of this very boundary, joined first since it
	// may still be in flight, already holds it.
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
	debt := &finalizeDebt{finalize: finalize}
steps:
	for step := core.StartStep(); step < m.cfg.MaxSteps; step++ {
		select {
		case <-m.stop:
			if debt.settle() {
				// The owed record converged: the run finished on its own
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
		debt.paid = 0
		gatherStart := time.Now()

		avail := bitset.New(n)
		accept := func(a arrival) {
			if a.step != step || a.worker < 0 || a.worker >= n || avail.Contains(a.worker) {
				// An earlier step's upload, or a duplicate.
				m.ignore(a, step, bcastEnd)
				return
			}
			if len(a.coded) != dim {
				m.malformedGradient(step, a.worker, len(a.coded))
				return
			}
			m.take(a, step, bcastEnd, avail, coded)
		}

		// The deadline policy is a flexible scheme's: it waits for all n until
		// the deadline, then for the first arrival.
		target, flexible := core.GatherTarget(step)
		policy := gatherPolicy{before: target, after: target}
		if m.cfg.Deadline > 0 && flexible {
			policy = gatherPolicy{cut: bcastEnd.Add(m.cfg.Deadline), before: n, after: 1}
		}
		degraded, err := m.gather(step, policy, flexible, bcastEnd, avail, accept, debt)
		// A gather no frame reached still owes the finalize. A converged one
		// ends the run however the gather ended, a Stop or a lost fleet
		// included: the record that converged is the run's last, as in
		// engine.Train.
		if debt.settle() {
			break
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
		elapsed := gatherEnd.Sub(gatherStart) - debt.paid
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
		debt.spans, debt.owed = stepSpans{rec: rec, bcastStart: bcastStart, bcastEnd: bcastEnd, gatherStart: gatherStart,
			gatherEnd: gatherEnd, decodeEnd: decodeEnd, updateEnd: time.Now()}, true
	}
	debt.settle()
	if m.cfg.Checkpoint != nil {
		ckpt.writeNow(core, core.NextStep(), true)
	}
	return core.Result(), nil
}

// take enters a's gradient, a well-formed upload for the step gathering
// from a worker not yet in avail, into the gather: the worker becomes
// available, coded holds its upload, and the arrival is counted and
// attributed.
func (m *Master) take(a arrival, step int, bcastEnd time.Time, avail *bitset.Set, coded [][]float64) {
	avail.Add(a.worker)
	coded[a.worker] = a.coded
	m.accepted[a.worker].Add(1)
	m.cfg.Metrics.markAccepted(a.worker)
	m.attribution.ObserveAccepted(trace.ArrivalSample{
		Worker: a.worker, Step: step,
		Compute: a.computeDur, Arrival: a.recvAt.Sub(bcastEnd),
	})
	if tl := m.cfg.Timeline; tl != nil && a.computeDur > 0 && !a.computeStart.IsZero() {
		// The worker's self-reported compute interval, rendered on its own
		// track. The start stamp is the worker's clock — on one machine that
		// is the same clock; across machines skew shifts the span without
		// changing its length.
		tl.Add(events.Span{
			Name: "compute", Cat: "compute", TID: a.worker + 1,
			Start: a.computeStart, Dur: a.computeDur,
			Args: map[string]any{"step": step},
		})
	}
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

// gatherPolicy is what a step's gather waits for: before gradients until
// the cut-off instant cut, after gradients from it on (a zero cut has always
// passed). Fastest-w has no cut and the gather target on both sides; the
// deadline policy cuts at the broadcast's end plus Deadline and waits for all
// n before it and for one after.
type gatherPolicy struct {
	cut           time.Time
	before, after int
}

// gather collects step's gradients into avail under policy p, and reports
// whether the step ended short of the after-cut target (degraded). One rule
// covers both policies: a frame that reached the master after the cut is
// admitted only while fewer than after have arrived, whenever the loop takes
// it off the queue; queued frames are taken before any timer. When fewer
// workers than the target remain reachable, a flexible scheme degrades to
// them and a rigid one fails fast; with none left, every worker is lost.
// The one timer fires at the pay-by instant (the cut less the last
// finalize's length, while one is owed and the cut lies ahead), at the cut,
// and at the StepTimeout, which counts from the cut — from the gather's start
// when there is none — and leaves out the finalize paid inside the gather.
func (m *Master) gather(step int, p gatherPolicy, flexible bool, bcastEnd time.Time, avail *bitset.Set, accept func(arrival), debt *finalizeDebt) (degraded bool, err error) {
	n := m.cfg.Strategy.N()
	pastCut, from := p.cut.IsZero(), p.cut
	if pastCut {
		from = time.Now()
	}
	var timer *time.Timer
	var timerC <-chan time.Time
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	// arm sets the timer for its next instant, if any; it runs at the start
	// and each time the timer has fired, so the channel is always drained.
	arm := func() {
		var at time.Time
		switch {
		case !pastCut && debt.owed:
			at = p.cut.Add(-debt.last)
		case !pastCut:
			at = p.cut
		case m.cfg.StepTimeout > 0:
			at = from.Add(m.cfg.StepTimeout + debt.paid)
		default:
			timerC = nil
			return
		}
		if timer == nil {
			timer = time.NewTimer(time.Until(at))
			timerC = timer.C
		} else {
			timer.Reset(time.Until(at))
		}
	}
	arm()
	for {
		target := p.before
		if pastCut {
			target = p.after
		}
		if reachable := m.achievable(avail); reachable < target {
			if !flexible {
				return false, fmt.Errorf(
					"cluster: step %d: only %d of %d workers reachable; rigid scheme %s needs %d — failing fast",
					step, m.countAlive(), n, m.cfg.Strategy.Name(), target)
			}
			if reachable == 0 {
				return false, fmt.Errorf("cluster: step %d: all %d workers lost", step, n)
			}
			target = reachable
		}
		if avail.Len() >= target {
			return avail.Len() < p.after, nil
		}
		var a arrival
		select {
		case a = <-m.grads:
		default:
			select {
			case a = <-m.grads:
			case <-m.wakeup:
				// Liveness changed: recompute the target on the next pass.
				continue
			case <-m.stop:
				return false, errInterrupted
			case now := <-timerC:
				if !pastCut {
					// The pay-by instant, or the cut: what is owed is paid
					// now, by the cut where the last finalize's length says
					// it can be.
					if debt.settle() {
						return false, errConverged
					}
					pastCut = !now.Before(p.cut)
				} else if m.cfg.StepTimeout > 0 && !now.Before(from.Add(m.cfg.StepTimeout+debt.paid)) {
					// Alive workers exist but the gradients are not coming
					// (lossy links, drop faults): proceed degraded rather
					// than stall, where the scheme can.
					switch {
					case avail.Empty():
						return false, fmt.Errorf("cluster: step %d: no gradient within step timeout %v", step, m.cfg.StepTimeout)
					case !flexible:
						return false, fmt.Errorf(
							"cluster: step %d: gathered %d of %d needed gradients within %v (scheme %s)",
							step, avail.Len(), p.after, m.cfg.StepTimeout, m.cfg.Strategy.Name())
					}
					return true, nil
				}
				arm()
				continue
			}
		}
		if debt.settle() {
			return false, errConverged
		}
		if a.recvAt.After(p.cut) {
			pastCut = true
			if avail.Len() >= p.after {
				m.ignore(a, step, bcastEnd)
				continue
			}
		}
		accept(a)
	}
}

// ignore drops a delivery the master cannot use — an earlier step's, a
// duplicate, or one past the cut-off of a step already gathered: the work
// was done, and it lands in the "ignored" column of the attribution report.
// An arrival for the step gathering is measured against its broadcast; an
// earlier step's gradient has no valid baseline, so its latency stays
// unmeasured.
func (m *Master) ignore(a arrival, step int, bcastEnd time.Time) {
	if a.worker >= 0 && a.worker < len(m.accepted) {
		s := trace.ArrivalSample{Worker: a.worker, Step: step, Compute: a.computeDur}
		if a.step == step {
			s.Arrival = a.recvAt.Sub(bcastEnd)
		}
		m.attribution.ObserveIgnored(s)
	}
	m.vecs.put(a.coded)
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
	m.closed = true
	for c := range m.hellos {
		_ = c.close()
	}
	for _, ws := range m.workers {
		if ws != nil {
			_ = ws.c.close()
		}
	}
}
