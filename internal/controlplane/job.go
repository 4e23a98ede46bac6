package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"isgc/internal/checkpoint"
	"isgc/internal/cliconfig"
	"isgc/internal/cluster"
	"isgc/internal/metrics"
	"isgc/internal/trace"
)

// JobState is one node of the job lifecycle state machine:
//
//	pending → running → completed | failed
//	            ↕ replacing (live re-placement: quiesce, re-derive, resume)
//	running/pending → killed  (operator kill: discard)
//	running → drained          (operator drain: quiesce + final checkpoint)
//
// A control-plane restart re-admits pending/running/replacing jobs from
// the scheduler's own checkpoint; terminal states are records only.
type JobState string

const (
	JobPending   JobState = "pending"
	JobRunning   JobState = "running"
	JobReplacing JobState = "replacing"
	JobCompleted JobState = "completed"
	JobFailed    JobState = "failed"
	JobKilled    JobState = "killed"
	JobDrained   JobState = "drained"
)

// terminal reports whether a state is final (no master, no agents).
func (s JobState) terminal() bool {
	switch s {
	case JobCompleted, JobFailed, JobKilled, JobDrained:
		return true
	}
	return false
}

// WorkerFault injects a deterministic fault or delay on one worker slot of
// a job — the control-plane counterpart of the isgc-worker CLI's -crash-at
// and -delay flags, used by tests and demos to reproduce machine loss.
// Faults apply to generation 0 only: a re-placement's replacement workers
// start clean (CrashAt is permanent, so re-applying it would kill every
// successor immediately).
type WorkerFault struct {
	// Worker is the slot index in [0, N).
	Worker int `json:"worker"`
	// CrashAtStep kills the worker at that step (< 0 disables; omitted in
	// JSON it defaults to -1, not 0 — see UnmarshalJSON).
	CrashAtStep int `json:"crash_at_step"`
	// Delay injects an exponential pre-upload delay with this mean.
	Delay time.Duration `json:"delay,omitempty"`
}

// UnmarshalJSON defaults an omitted crash_at_step to -1 (disabled). The
// struct zero value would otherwise mean "crash at step 0", so a fault
// that only sets a delay would kill its worker immediately.
func (f *WorkerFault) UnmarshalJSON(b []byte) error {
	type plain WorkerFault // no methods: plain decode, no recursion
	p := plain{CrashAtStep: -1}
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	*f = WorkerFault(p)
	return nil
}

// JobSpec is everything a job submission carries — scheme, data, training
// hyperparameters, and runtime policy. The zero value of most fields means
// "use the default"; Normalize resolves them.
type JobSpec struct {
	// Name is a human label (defaults to the job id).
	Name string `json:"name,omitempty"`
	// Scheme is the placement spec; Scheme.N is the fleet size the job
	// wants (a re-placement may shrink the actual placement).
	Scheme cliconfig.SchemeSpec `json:"scheme"`
	// Data is the shared dataset/loader spec (zero → cliconfig defaults
	// with Seed 42).
	Data cliconfig.DataSpec `json:"data"`
	// W is how many workers the master waits for per step (0 = all).
	W int `json:"w,omitempty"`
	// LearningRate is η (0 → 0.2).
	LearningRate float64 `json:"learning_rate,omitempty"`
	// MaxSteps bounds the run (0 → 100).
	MaxSteps int `json:"max_steps,omitempty"`
	// LossThreshold stops early when reached (0 disables).
	LossThreshold float64 `json:"loss_threshold,omitempty"`
	// ComputePar sizes master and worker compute pools (0 = GOMAXPROCS;
	// 1 makes the loss bits independent of the host's core count).
	ComputePar int `json:"compute_par,omitempty"`
	// CheckpointEvery is the durable checkpoint period in steps when the
	// plane has a state dir (0 → 10).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// StepTimeout bounds one step's gather (0 disables).
	StepTimeout time.Duration `json:"step_timeout,omitempty"`
	// LivenessTimeout declares a worker dead after this much silence
	// (0 → 2s under a control plane — much tighter than the standalone
	// master's 15s, because the plane can actually act on it).
	LivenessTimeout time.Duration `json:"liveness_timeout,omitempty"`
	// PermanentAfter is how long a worker may stay dead before the plane
	// re-derives the placement (0 → 2× LivenessTimeout).
	PermanentAfter time.Duration `json:"permanent_after,omitempty"`
	// HeartbeatInterval is the workers' ping period (0 → 1s).
	HeartbeatInterval time.Duration `json:"heartbeat_interval,omitempty"`
	// ReconnectTimeout bounds a worker's redial budget (0 → 10s).
	ReconnectTimeout time.Duration `json:"reconnect_timeout,omitempty"`
	// Faults optionally injects per-worker crash/delay on generation 0.
	Faults []WorkerFault `json:"faults,omitempty"`
}

// Normalize fills defaults and validates; it is called on every submission
// path (API, CLI, tests) so a job object always carries resolved values.
func (s *JobSpec) Normalize() error {
	if s.Data.Samples == 0 && s.Data.Features == 0 {
		seed := s.Data.Seed
		if seed == 0 {
			seed = 42
		}
		s.Data = cliconfig.DefaultData(seed)
	}
	if s.LearningRate == 0 {
		s.LearningRate = 0.2
	}
	if s.LearningRate < 0 {
		return fmt.Errorf("controlplane: need learning rate > 0, got %v", s.LearningRate)
	}
	if s.MaxSteps == 0 {
		s.MaxSteps = 100
	}
	if s.MaxSteps < 0 {
		return fmt.Errorf("controlplane: need max steps > 0, got %d", s.MaxSteps)
	}
	if s.CheckpointEvery <= 0 {
		s.CheckpointEvery = 10
	}
	if s.LivenessTimeout == 0 {
		s.LivenessTimeout = 2 * time.Second
	}
	if s.PermanentAfter == 0 {
		s.PermanentAfter = 2 * s.LivenessTimeout
	}
	if s.ReconnectTimeout == 0 {
		s.ReconnectTimeout = 10 * time.Second
	}
	for _, f := range s.Faults {
		if f.Worker < 0 || f.Worker >= s.Scheme.N {
			return fmt.Errorf("controlplane: fault worker %d out of range [0,%d)", f.Worker, s.Scheme.N)
		}
	}
	// The placement must build at the requested size — a spec that cannot
	// produce a placement is rejected at submission, not at admission.
	if _, err := s.Scheme.Build(); err != nil {
		return err
	}
	return nil
}

// job is the scheduler's runtime view of one admitted (or pending) job.
// The immutable identity (id, spec) needs no lock; everything else is
// guarded by mu.
type job struct {
	id   string
	spec JobSpec

	mu    sync.Mutex
	state JobState
	// gen counts master generations: 0 on admission, +1 per re-placement.
	gen int
	// n is the current placement size (spec.Scheme.N until a shrink).
	n int
	// agents maps worker id → agent name for the current generation.
	agents []string
	// master is the live master (nil between generations / when not
	// running).
	master *cluster.Master
	// reg is the live master's metrics registry (nil on an unmetered
	// plane and between generations); lastExposition is the previous
	// generation's final render, so a finished job still answers without
	// its registry keeping the master reachable.
	reg            *metrics.Registry
	lastExposition []byte
	// lastMasterAddr remembers the previous master's listen address so a
	// kill/drain can leave a MsgJobGone tombstone on it.
	lastMasterAddr string
	// run accumulates step records across generations.
	run trace.Run
	// params is the latest post-step parameter vector (warm-handoff
	// state between generations).
	params []float64
	// nextStep is the next step a successor generation broadcasts.
	nextStep int
	// randSeed/randDraws carry the decoder RNG position across
	// generations so a re-placement that preserves the fleet shape stays
	// bit-identical to an uninterrupted run.
	randSeed  int64
	randDraws uint64
	hasRand   bool
	// stopReason tells runJob why the master was quiesced.
	stopReason stopReason
	// evicted is the worker id whose permanent eviction triggered the
	// current re-placement (-1 otherwise).
	evicted int
	// replacements counts completed re-placements.
	replacements int
	// converged/err capture the final outcome.
	converged bool
	errMsg    string
	// resume marks a job re-admitted after a control-plane restart: its
	// first generation restores from the job's durable checkpoint.
	resume bool
	// store is the job's durable checkpoint store (nil without a state
	// dir).
	store *checkpoint.Store

	submitted time.Time
	started   time.Time
	finished  time.Time
	// replanAt stamps the re-placement trigger for the latency histogram.
	replanAt time.Time
}

// stopReason is why a running master was asked to quiesce.
type stopReason string

const (
	stopNone     stopReason = ""
	stopReplan   stopReason = "replan"
	stopDrain    stopReason = "drain"
	stopKill     stopReason = "kill"
	stopShutdown stopReason = "shutdown"
)

// JobWorkerView is one row of a job's worker → agent mapping.
type JobWorkerView struct {
	Worker int    `json:"worker"`
	Agent  string `json:"agent"`
}

// JobStatus is the API's job snapshot.
type JobStatus struct {
	ID           string          `json:"id"`
	Name         string          `json:"name"`
	State        JobState        `json:"state"`
	Scheme       string          `json:"scheme"`
	N            int             `json:"n"`
	RequestedN   int             `json:"requested_n"`
	Step         int             `json:"step"`
	MaxSteps     int             `json:"max_steps"`
	Generation   int             `json:"generation"`
	Replacements int             `json:"replacements"`
	Converged    bool            `json:"converged"`
	FinalLoss    float64         `json:"final_loss,omitempty"`
	Error        string          `json:"error,omitempty"`
	Workers      []JobWorkerView `json:"workers,omitempty"`
	SubmittedAt  time.Time       `json:"submitted_at"`
	FinishedAt   *time.Time      `json:"finished_at,omitempty"`
}

// status snapshots the job for the API; live steps come from the running
// master's health view.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:           j.id,
		Name:         j.spec.Name,
		State:        j.state,
		Scheme:       fmt.Sprintf("%s(n=%d,c=%d)", j.spec.Scheme.Scheme, j.spec.Scheme.N, j.spec.Scheme.C),
		N:            j.n,
		RequestedN:   j.spec.Scheme.N,
		Step:         j.nextStep,
		MaxSteps:     j.spec.MaxSteps,
		Generation:   j.gen,
		Replacements: j.replacements,
		Converged:    j.converged,
		Error:        j.errMsg,
		SubmittedAt:  j.submitted,
	}
	if st.Name == "" {
		st.Name = j.id
	}
	if j.master != nil {
		st.Step = j.master.Health().Step
	}
	if n := j.run.Steps(); n > 0 {
		st.FinalLoss = j.run.Records[n-1].Loss
	}
	for i, a := range j.agents {
		st.Workers = append(st.Workers, JobWorkerView{Worker: i, Agent: a})
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// writeMetrics renders the job's master metrics: the live registry, else
// the last generation's final exposition (empty before the first).
func (j *job) writeMetrics(w io.Writer) error {
	j.mu.Lock()
	reg, last := j.reg, j.lastExposition
	j.mu.Unlock()
	if reg != nil {
		return reg.WritePrometheus(w)
	}
	_, err := w.Write(last)
	return err
}

// retireMetrics freezes the ended generation's registry into its final
// exposition. Caller holds j.mu.
func (j *job) retireMetrics() {
	if j.reg == nil {
		return
	}
	var b bytes.Buffer
	_ = j.reg.WritePrometheus(&b)
	j.reg, j.lastExposition = nil, b.Bytes()
}

// result returns a copy of the job's accumulated records and final params
// — the bit-equivalence tests' comparison handle.
func (j *job) result() (trace.Run, []float64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var run trace.Run
	run.Records = append([]trace.StepRecord(nil), j.run.Records...)
	params := append([]float64(nil), j.params...)
	return run, params
}
