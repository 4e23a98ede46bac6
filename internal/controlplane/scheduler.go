package controlplane

import (
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sort"
	"time"

	"isgc/internal/cluster"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/isgc"
	"isgc/internal/metrics"
	"isgc/internal/model"
	"isgc/internal/trace"

	"sync"
)

// tombstoneTTL is how long the plane answers a quiesced job's old master
// address with MsgJobGone, so workers outside the plane's agent pool stop
// burning their redial budget instead of spinning against a dead port.
const tombstoneTTL = 30 * time.Second

// scheduler owns the job table and drives every job's lifecycle: admission
// when enough idle agents exist, live re-placement on permanent eviction,
// operator drain/kill, and checkpoint/restore of its own state.
type scheduler struct {
	fl       *fleet
	events   *events.Log
	metrics  *PlaneMetrics
	stateDir string
	state    *planeStore

	mu    sync.Mutex
	jobs  map[string]*job
	order []string
	seq   int
	// stopping rejects submissions once shutdown began. It shares mu with
	// the job table, so a Submit either lands before stop's snapshot (and
	// is quiesced and persisted like any other job) or fails — never a
	// silent forever-pending job.
	stopping bool

	pokeCh   chan struct{}
	quit     chan struct{}
	stopOnce sync.Once
	loopWG   sync.WaitGroup // admission loop + tombstones
	jobWG    sync.WaitGroup // one runJob goroutine per admitted job
}

func newScheduler(fl *fleet, ev *events.Log, pm *PlaneMetrics, stateDir string) *scheduler {
	s := &scheduler{
		fl:       fl,
		events:   ev,
		metrics:  pm,
		stateDir: stateDir,
		jobs:     make(map[string]*job),
		pokeCh:   make(chan struct{}, 1),
		quit:     make(chan struct{}),
	}
	fl.onDone = s.agentDone
	fl.onChange = s.poke
	return s
}

// start launches the admission loop (after any restore).
func (s *scheduler) start() {
	s.loopWG.Add(1)
	go s.admissionLoop()
	s.poke()
}

// stop quiesces every running job at a step boundary (state preserved for
// a restore), stops the loops, and saves the scheduler's state.
func (s *scheduler) stop() {
	s.mu.Lock()
	s.stopping = true
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.quit) })
	for _, j := range jobs {
		j.mu.Lock()
		var m *cluster.Master
		if !j.state.terminal() && j.stopReason == stopNone {
			j.stopReason = stopShutdown
			m = j.master
		}
		j.mu.Unlock()
		if m != nil {
			m.Stop()
		}
	}
	s.jobWG.Wait()
	s.loopWG.Wait()
	s.saveState()
}

// poke nudges the admission loop; extras are dropped (it rescans anyway).
func (s *scheduler) poke() {
	select {
	case s.pokeCh <- struct{}{}:
	default:
	}
}

// agentDone is the fleet's completion callback: the pool grew, so pending
// jobs may now fit.
func (s *scheduler) agentDone(agent, jobID, status, errMsg string) {
	if status == StatusError && errMsg != "" {
		s.events.Warn("plane.agent_run_error", "agent reported a failed worker run", events.NoStep,
			events.NoWorker, events.Fields{"agent": agent, "job": jobID, "error": errMsg})
	}
}

// Submit validates and enqueues a job; admission happens asynchronously as
// soon as enough idle agents exist.
func (s *scheduler) Submit(spec JobSpec) (string, error) {
	if err := spec.Normalize(); err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return "", fmt.Errorf("controlplane: scheduler is shut down")
	}
	s.seq++
	id := fmt.Sprintf("job-%03d", s.seq)
	j := &job{id: id, spec: spec, state: JobPending, n: spec.Scheme.N, evicted: -1,
		submitted: time.Now()}
	if err := s.openJobStore(j); err != nil {
		s.mu.Unlock()
		return "", err
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	s.metrics.markSubmitted()
	s.updateActive()
	s.events.Info("plane.job_submitted", "job accepted", events.NoStep, events.NoWorker,
		events.Fields{"job": id, "name": spec.Name, "scheme": spec.Scheme.Scheme,
			"n": spec.Scheme.N, "c": spec.Scheme.C, "steps": spec.MaxSteps})
	s.saveState()
	s.poke()
	return id, nil
}

// Job returns one job's status; ok is false for an unknown id.
func (s *scheduler) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobStatus{}, false
	}
	return j.status(), true
}

// WriteJobMetrics writes one job's master metrics in the Prometheus text
// exposition; ok is false for an unknown id.
func (s *scheduler) WriteJobMetrics(w io.Writer, id string) (ok bool, err error) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return false, nil
	}
	return true, j.writeMetrics(w)
}

// Jobs returns every job's status in submission order.
func (s *scheduler) Jobs() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if st, ok := s.Job(id); ok {
			out = append(out, st)
		}
	}
	return out
}

// JobResult returns a job's accumulated step records and final params —
// the handle the bit-equivalence tests compare against a solo baseline.
func (s *scheduler) JobResult(id string) (trace.Run, []float64, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return trace.Run{}, nil, false
	}
	run, params := j.result()
	return run, params, true
}

// Kill terminates a job: a pending job is simply marked killed, a running
// one is quiesced and its agents released. The job's records stay
// queryable; its durable checkpoints are left in place.
func (s *scheduler) Kill(id string) error { return s.terminate(id, stopKill, JobKilled) }

// Drain gracefully stops a job at a step boundary, writes its final
// resumable checkpoint (when the plane has a state dir), and returns its
// agents to the pool. A drained job is terminal for this plane life.
func (s *scheduler) Drain(id string) error { return s.terminate(id, stopDrain, JobDrained) }

func (s *scheduler) terminate(id string, reason stopReason, target JobState) error {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return fmt.Errorf("controlplane: no job %q", id)
	}
	j.mu.Lock()
	switch {
	case j.state.terminal():
		j.mu.Unlock()
		return fmt.Errorf("controlplane: job %s is already %s", id, j.state)
	case j.state == JobPending:
		j.state = target
		j.finished = time.Now()
		j.mu.Unlock()
		s.finishEvents(id, target, "")
		return nil
	case j.stopReason != stopNone:
		j.mu.Unlock()
		return fmt.Errorf("controlplane: job %s is mid-transition", id)
	}
	j.stopReason = reason
	m := j.master
	j.mu.Unlock()
	if m != nil {
		m.Stop() // runJob observes the reason and finishes the transition
	}
	return nil
}

// finishEvents records a terminal transition's event/metric/state fallout.
func (s *scheduler) finishEvents(id string, state JobState, errMsg string) {
	s.metrics.markTerminal(state)
	s.updateActive()
	fields := events.Fields{"job": id, "state": string(state)}
	if errMsg != "" {
		fields["error"] = errMsg
	}
	if state == JobFailed {
		s.events.Error("plane.job_finished", "job reached a terminal state", events.NoStep, events.NoWorker, fields)
	} else {
		s.events.Info("plane.job_finished", "job reached a terminal state", events.NoStep, events.NoWorker, fields)
	}
	s.saveState()
	s.poke()
}

// updateActive refreshes the non-terminal-jobs gauge.
func (s *scheduler) updateActive() {
	s.mu.Lock()
	active := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if !j.state.terminal() {
			active++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	s.metrics.setActive(active)
}

// admissionLoop retries admission whenever the pool changes or a job
// arrives; the ticker is a safety net against lost pokes.
func (s *scheduler) admissionLoop() {
	defer s.loopWG.Done()
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-s.pokeCh:
		case <-t.C:
		}
		s.admitPending()
	}
}

// admitPending starts every pending job the idle pool can hold, in
// submission order (no backfilling past a job that does not fit would be
// unfair the other way; FIFO with skip keeps small jobs flowing while a
// big one waits).
func (s *scheduler) admitPending() {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	for _, id := range ids {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j == nil {
			continue
		}
		j.mu.Lock()
		pending := j.state == JobPending
		need := j.n // spec N, or the checkpointed N for a resumed job
		j.mu.Unlock()
		if !pending {
			continue
		}
		idle := s.fl.idle()
		if len(idle) < need {
			continue
		}
		agents := idle[:need]
		if !s.claim(agents, id) {
			continue // racing pool change; the next poke retries
		}
		j.mu.Lock()
		if j.state != JobPending { // raced a kill
			j.mu.Unlock()
			// No assignment was pushed yet, so there is no worker to
			// release and no done coming — drop the claims directly.
			for _, a := range agents {
				s.fl.unclaim(a, id)
			}
			continue
		}
		j.state = JobRunning
		j.started = time.Now()
		j.agents = append([]string(nil), agents...)
		j.mu.Unlock()
		s.events.Info("plane.job_admitted", "job admitted onto the fleet", events.NoStep, events.NoWorker,
			events.Fields{"job": id, "agents": agents})
		s.jobWG.Add(1)
		go s.runJob(j)
	}
}

// claim reserves the agents for a job before its master exists, so one
// admission pass cannot hand the same agent to two jobs.
func (s *scheduler) claim(agents []string, jobID string) bool {
	s.fl.mu.Lock()
	for _, name := range agents {
		a := s.fl.agents[name]
		if a == nil || !a.alive || a.jobID != "" {
			// Unwind the partial claim.
			for _, prev := range agents {
				if prev == name {
					break
				}
				if p := s.fl.agents[prev]; p != nil && p.jobID == jobID {
					p.jobID = ""
				}
			}
			s.fl.mu.Unlock()
			return false
		}
		// A claim opens a new binding epoch; the assign that follows bumps
		// it again and stamps the Assignment, so any done still in flight
		// for an older epoch cannot dissolve the claim.
		a.epoch++
		a.jobID = jobID
	}
	s.fl.mu.Unlock()
	s.fl.updateGauges()
	return true
}

// runJob drives one job through its generations: run a master, and on a
// re-placement quiesce hand the warm state to a successor with a freshly
// derived placement until the job reaches a terminal state.
func (s *scheduler) runJob(j *job) {
	defer s.jobWG.Done()
	first := true
	for {
		// A kill/drain/shutdown that landed between generations (master
		// nil, nothing to Stop) is honored before starting the next life.
		j.mu.Lock()
		early := j.stopReason
		if early == stopKill || early == stopDrain || early == stopShutdown {
			j.stopReason = stopNone
		}
		agentsNow := append([]string(nil), j.agents...)
		j.mu.Unlock()
		switch early {
		case stopShutdown:
			return
		case stopKill:
			s.finishJob(j, JobKilled, "", agentsNow)
			return
		case stopDrain:
			s.finishJob(j, JobDrained, "", agentsNow)
			return
		}

		res, runErr := s.runGeneration(j, first)
		first = false

		j.mu.Lock()
		reason := j.stopReason
		j.stopReason = stopNone
		j.master = nil
		j.retireMetrics()
		if res != nil {
			j.run.Records = append(j.run.Records, res.Run.Records...)
			if len(res.Params) > 0 {
				j.params = append(j.params[:0], res.Params...)
			}
			if n := len(res.Run.Records); n > 0 {
				j.nextStep = res.Run.Records[n-1].Step + 1
			}
			j.converged = j.converged || res.Converged
		}
		agents := append([]string(nil), j.agents...)
		interrupted := res != nil && res.Interrupted
		j.mu.Unlock()
		s.metrics.setJobProgress(j.id, jobStep(j), len(agents))

		switch {
		case runErr != nil:
			s.finishJob(j, JobFailed, runErr.Error(), agents)
			return
		case !interrupted:
			s.finishJob(j, JobCompleted, "", agents)
			return
		}
		// Interrupted: the reason decides the next life.
		switch reason {
		case stopShutdown:
			return // state stays as-is; the checkpoint resumes it
		case stopKill:
			s.finishJob(j, JobKilled, "", agents)
			return
		case stopDrain:
			s.finishJob(j, JobDrained, "", agents)
			return
		}
		// Live re-placement: re-derive the placement over the surviving +
		// idle agents and hand the warm state to a successor master.
		next, err := s.replacementSet(j, agents)
		if err != nil {
			s.finishJob(j, JobFailed, err.Error(), agents)
			return
		}
		j.mu.Lock()
		j.gen++
		j.n = len(next)
		evicted := j.evicted
		j.evicted = -1
		prev := j.agents
		j.agents = next
		j.mu.Unlock()
		// Survivors are re-assigned directly; dropped agents are released.
		inNext := make(map[string]bool, len(next))
		for _, a := range next {
			inNext[a] = true
		}
		for _, a := range prev {
			if !inNext[a] && s.fl.aliveAgent(a) {
				s.fl.release(a, j.id)
			}
		}
		s.events.Info("plane.replacement_derived", "new placement derived after permanent eviction",
			events.NoStep, evicted, events.Fields{"job": j.id, "n": len(next), "agents": next,
				"was_n": len(prev)})
	}
}

// jobStep returns the job's absolute next step (live view).
func jobStep(j *job) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextStep
}

// finishJob moves a job to a terminal state, releases its agents, and —
// for quiesced (not completed) jobs — leaves a tombstone on the dead
// master's address so stray workers get MsgJobGone instead of a silent
// dead port.
func (s *scheduler) finishJob(j *job, state JobState, errMsg string, agents []string) {
	j.mu.Lock()
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	tombstoneAddr := ""
	if state == JobKilled || state == JobDrained {
		tombstoneAddr = j.lastMasterAddr
	}
	j.mu.Unlock()
	for _, a := range agents {
		s.fl.release(a, j.id)
	}
	if tombstoneAddr != "" {
		s.startTombstone(tombstoneAddr, j.id)
	}
	s.finishEvents(j.id, state, errMsg)
}

// runGeneration runs one master life of a job: build placement, strategy,
// and master; push the assignments; block until the run ends or is
// quiesced. firstRun gates the admission-latency observation and the
// generation-0 fault injection.
func (s *scheduler) runGeneration(j *job, firstRun bool) (*engine.Result, error) {
	j.mu.Lock()
	spec := j.spec
	gen := j.gen
	agents := append([]string(nil), j.agents...)
	warmParams := append([]float64(nil), j.params...)
	warmStep := j.nextStep
	hasRand, randSeed, randDraws := j.hasRand, j.randSeed, j.randDraws
	resume := j.resume
	j.resume = false
	replanAt := j.replanAt
	j.replanAt = time.Time{}
	j.mu.Unlock()

	n := len(agents)
	scheme := spec.Scheme
	scheme.N = n
	p, err := scheme.Build()
	if err != nil {
		return nil, fmt.Errorf("controlplane: job %s: placement n=%d: %w", j.id, n, err)
	}
	st, err := engine.NewISGC(isgc.New(p, spec.Data.Seed))
	if err != nil {
		return nil, err
	}
	if gen > 0 && hasRand {
		// Carry the decoder RNG position across the handoff: a successor
		// that preserves the fleet shape must draw exactly where the
		// previous life stopped, or fairness tie-breaks diverge.
		if rs, ok := st.(engine.RandStateful); ok {
			rs.RestoreRandState(randSeed, randDraws)
		}
	}
	data, err := spec.Data.BuildDataset()
	if err != nil {
		return nil, err
	}
	w := spec.W
	if w <= 0 || w > n {
		w = n
	}
	var warm *cluster.WarmState
	if gen > 0 {
		warm = &cluster.WarmState{Params: warmParams, StartStep: warmStep, Generation: gen}
	}
	// A metered plane (PlaneMetrics non-nil) gives each master life a
	// fresh registry: its gauge functions bind to this master.
	var (
		jreg *metrics.Registry
		mm   *cluster.MasterMetrics
	)
	if s.metrics != nil {
		jreg = metrics.NewRegistry()
		mm = cluster.NewMasterMetrics(jreg)
	}
	m, err := cluster.NewMaster(cluster.MasterConfig{
		Metrics:         mm,
		Addr:            "127.0.0.1:0",
		Strategy:        st,
		Model:           model.SoftmaxRegression{Features: spec.Data.Features, Classes: spec.Data.Classes},
		Data:            data,
		LearningRate:    spec.LearningRate,
		W:               w,
		MaxSteps:        spec.MaxSteps,
		LossThreshold:   spec.LossThreshold,
		Seed:            spec.Data.Seed,
		StepTimeout:     spec.StepTimeout,
		LivenessTimeout: spec.LivenessTimeout,
		ComputePar:      spec.ComputePar,
		Checkpoint:      j.store,
		CheckpointEvery: spec.CheckpointEvery,
		Restore:         resume,
		Warm:            warm,
		PermanentAfter:  spec.PermanentAfter,
		OnPermanentEviction: func(worker, workerGen int) {
			s.requestReplacement(j, worker, workerGen)
		},
	})
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	j.master = m
	j.reg = jreg
	j.lastMasterAddr = m.Addr()
	// A terminate that raced the master's construction found nothing to
	// Stop; honor it now that the master exists.
	pendingStop := j.stopReason == stopKill || j.stopReason == stopDrain || j.stopReason == stopShutdown
	j.mu.Unlock()
	if pendingStop {
		m.Stop()
	}

	type runOut struct {
		res *engine.Result
		err error
	}
	outCh := make(chan runOut, 1)
	go func() {
		res, err := m.Run()
		outCh <- runOut{res, err}
	}()

	// Push the assignments; the master's accept loop is already serving.
	for i, name := range agents {
		as := &Assignment{
			JobID:             j.id,
			Generation:        gen,
			WorkerID:          i,
			MasterAddr:        m.Addr(),
			Scheme:            scheme,
			Data:              spec.Data,
			ComputePar:        spec.ComputePar,
			HeartbeatInterval: spec.HeartbeatInterval,
			ReconnectTimeout:  spec.ReconnectTimeout,
			CrashAtStep:       -1,
		}
		if firstRun {
			for _, f := range spec.Faults {
				if f.Worker == i {
					as.Delay = f.Delay
					if f.CrashAtStep >= 0 {
						as.CrashAtStep = f.CrashAtStep
					}
				}
			}
		}
		if err := s.fl.assign(name, as); err != nil {
			// The agent died between claim and assign; the master's accept
			// timeout (or the permanent-eviction monitor) deals with the
			// hole, so log and keep going rather than abort the job.
			s.events.Warn("plane.assign_failed", "could not push assignment", events.NoStep, i,
				events.Fields{"job": j.id, "agent": name, "error": err.Error()})
		}
	}
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
	if firstRun && gen == 0 {
		s.metrics.observeAdmission(time.Since(j.submitted).Seconds())
	}
	if !replanAt.IsZero() {
		lat := time.Since(replanAt)
		s.metrics.observeReplacement(lat.Seconds())
		s.metrics.markReplacement(j.id)
		j.mu.Lock()
		j.replacements++
		j.mu.Unlock()
		s.events.Info("plane.replacement_completed", "successor master assigned; job resumed warm",
			warmStep, events.NoWorker, events.Fields{"job": j.id, "generation": gen,
				"n": n, "latency": lat.String()})
		s.saveState()
	}
	s.metrics.setJobProgress(j.id, warmStep, n)

	out := <-outCh
	// Capture the decoder RNG position for the next life's restore.
	if rs, ok := st.(engine.RandStateful); ok {
		seed, draws := rs.RandState()
		j.mu.Lock()
		j.randSeed, j.randDraws, j.hasRand = seed, draws, true
		j.mu.Unlock()
	}
	return out.res, out.err
}

// requestReplacement is the OnPermanentEviction hook target: quiesce the
// job at the next step boundary and let runJob derive the new placement.
// Idempotent per generation — a second eviction while replacing is picked
// up by the replacement derivation anyway (it only keeps alive agents).
func (s *scheduler) requestReplacement(j *job, worker, workerGen int) {
	j.mu.Lock()
	if j.state != JobRunning || j.stopReason != stopNone {
		j.mu.Unlock()
		return
	}
	j.stopReason = stopReplan
	j.state = JobReplacing
	j.evicted = worker
	j.replanAt = time.Now()
	m := j.master
	j.mu.Unlock()
	s.events.Warn("plane.replacement_started", "permanent eviction; quiescing job for re-placement",
		events.NoStep, worker, events.Fields{"job": j.id, "worker_generation": workerGen})
	if m != nil {
		m.Stop()
	}
}

// replacementSet derives the successor fleet: survivors first (their
// partitions' loaders are already warm), then idle agents, shrinking the
// placement size until one builds — IS-GC keeps decoding any subset, so a
// smaller placement is always admissible down to whatever the scheme kind
// allows (FR needs c | n, HR needs a consistent group shape).
func (s *scheduler) replacementSet(j *job, prev []string) ([]string, error) {
	var survivors []string
	for _, name := range prev {
		if s.fl.aliveAgent(name) {
			survivors = append(survivors, name)
		}
	}
	candidates := append([]string(nil), survivors...)
	for _, name := range s.fl.idle() {
		candidates = append(candidates, name)
	}
	sort.Strings(candidates[len(survivors):]) // idle part already sorted; keep survivors first
	target := j.spec.Scheme.N
	if len(candidates) < target {
		target = len(candidates)
	}
	for n := target; n >= 1; n-- {
		scheme := j.spec.Scheme
		scheme.N = n
		if _, err := scheme.Build(); err == nil {
			return candidates[:n], nil
		}
	}
	return nil, fmt.Errorf("controlplane: job %s: no feasible placement for %d surviving agents (scheme %s c=%d)",
		j.id, len(candidates), j.spec.Scheme.Scheme, j.spec.Scheme.C)
}

// startTombstone binds a quiesced job's old master address and answers
// every registration attempt with MsgJobGone until the TTL (or plane
// shutdown), so workers that are not fleet agents stop retrying. Binding
// can fail if the port was reused — then the tombstone is skipped; the
// workers' bounded reconnect budget still ends the spin.
func (s *scheduler) startTombstone(addr, jobID string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		s.events.Debug("plane.tombstone_skipped", "old master address not bindable", events.NoStep,
			events.NoWorker, events.Fields{"job": jobID, "addr": addr, "error": err.Error()})
		return
	}
	s.events.Info("plane.tombstone_started", "answering the dead master's address with job-gone",
		events.NoStep, events.NoWorker, events.Fields{"job": jobID, "addr": addr})
	s.loopWG.Add(2)
	go func() {
		defer s.loopWG.Done()
		select {
		case <-time.After(tombstoneTTL):
		case <-s.quit:
		}
		_ = ln.Close()
	}()
	go func() {
		defer s.loopWG.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go answerJobGone(c)
		}
	}()
}

// answerJobGone speaks just enough of the cluster handshake to deliver the
// terminal reject: read the gob hello, answer MsgJobGone. Works for both
// codec proposals — the reject arrives before any upgrade, exactly like a
// done master's early reject.
func answerJobGone(c net.Conn) {
	defer func() { _ = c.Close() }()
	_ = c.SetDeadline(time.Now().Add(2 * time.Second))
	dec := gob.NewDecoder(c)
	var hello cluster.Envelope
	if dec.Decode(&hello) != nil || hello.Kind != cluster.MsgHello {
		return
	}
	_ = gob.NewEncoder(c).Encode(&cluster.Envelope{Kind: cluster.MsgJobGone})
}
