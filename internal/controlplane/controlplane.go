// Package controlplane turns the one-run-per-process master into an
// elastic multi-job control plane: a fleet manager that pools worker
// agents, a job scheduler that admits many concurrent gradient-coding jobs
// onto that shared fleet, and live re-placement — when a worker is
// permanently evicted mid-run, the affected job is quiesced at a step
// boundary, a new placement is derived over the surviving + idle agents,
// and the job resumes warm from in-memory parameters (bit-equivalent to a
// checkpoint restore).
//
// The plane is deliberately layered on the existing primitives rather than
// replacing them: each job generation is an ordinary cluster.Master on an
// ephemeral port, each fleet agent wraps an ordinary cluster.Worker, and
// durability reuses checkpoint.Store — for per-job run state and for the
// scheduler's own job table. Observability is the same: a metered plane
// exports its own families plus one ordinary cluster.MasterMetrics
// registry per job, scraped on /jobs/{id}/metrics.
package controlplane

import (
	"fmt"
	"net/http"
	"time"

	"isgc/internal/events"
	"isgc/internal/metrics"
	"isgc/internal/trace"
)

// Config configures a Plane.
type Config struct {
	// FleetAddr is the fleet listener address ("127.0.0.1:0" for tests).
	FleetAddr string
	// StateDir, when non-empty, enables durability: per-job checkpoints
	// under <StateDir>/jobs/<id> and scheduler-state checkpoints under
	// <StateDir>/plane.
	StateDir string
	// Restore re-admits jobs from the newest scheduler checkpoint in
	// StateDir before accepting new work.
	Restore bool
	// AgentTimeout declares a silent agent dead (0 → 5s).
	AgentTimeout time.Duration
	// Registry, when non-nil, receives the plane's metric families, and
	// every job master then gets a registry of its own, served on
	// GET /jobs/{id}/metrics.
	Registry *metrics.Registry
	// Events, when non-nil, receives the plane's structured event stream.
	Events *events.Log
}

// Plane is the assembled control plane: fleet manager + job scheduler.
type Plane struct {
	cfg   Config
	fl    *fleet
	sched *scheduler
}

// New assembles a plane; nothing listens until Start.
func New(cfg Config) (*Plane, error) {
	if cfg.FleetAddr == "" {
		return nil, fmt.Errorf("controlplane: need a fleet address")
	}
	if cfg.Restore && cfg.StateDir == "" {
		return nil, fmt.Errorf("controlplane: restore needs a state dir")
	}
	pm := NewPlaneMetrics(cfg.Registry)
	fl := newFleet(cfg.AgentTimeout, cfg.Events, pm)
	sched := newScheduler(fl, cfg.Events, pm, cfg.StateDir)
	return &Plane{cfg: cfg, fl: fl, sched: sched}, nil
}

// Start binds the fleet listener, restores scheduler state when asked, and
// begins admitting jobs.
func (p *Plane) Start() error {
	if err := p.sched.openState(); err != nil {
		return err
	}
	if p.cfg.Restore {
		if err := p.sched.restoreState(); err != nil {
			return err
		}
	}
	if err := p.fl.start(p.cfg.FleetAddr); err != nil {
		return err
	}
	p.cfg.Events.Info("plane.started", "control plane serving", events.NoStep, events.NoWorker,
		events.Fields{"fleet": p.fl.addr(), "restore": p.cfg.Restore})
	p.sched.start()
	return nil
}

// Stop quiesces every running job at a step boundary, checkpoints the
// scheduler state, and tears down the fleet. Non-terminal jobs stay
// resumable: a new plane with Restore over the same StateDir picks them
// up.
func (p *Plane) Stop() {
	p.sched.stop()
	p.fl.close()
	p.cfg.Events.Info("plane.stopped", "control plane shut down", events.NoStep, events.NoWorker, nil)
}

// FleetAddr is the bound fleet listener address (valid after Start).
func (p *Plane) FleetAddr() string { return p.fl.addr() }

// Submit enqueues a job for admission and returns its id.
func (p *Plane) Submit(spec JobSpec) (string, error) { return p.sched.Submit(spec) }

// Jobs lists every job's status in submission order.
func (p *Plane) Jobs() []JobStatus { return p.sched.Jobs() }

// Job returns one job's status.
func (p *Plane) Job(id string) (JobStatus, bool) { return p.sched.Job(id) }

// JobResult returns a job's accumulated step records and final parameters.
func (p *Plane) JobResult(id string) (trace.Run, []float64, bool) { return p.sched.JobResult(id) }

// Kill terminates a job, discarding in-flight progress past the last
// durable checkpoint.
func (p *Plane) Kill(id string) error { return p.sched.Kill(id) }

// Drain quiesces a job at a step boundary and returns its agents to the
// pool; with a state dir the job's final checkpoint stays resumable.
func (p *Plane) Drain(id string) error { return p.sched.Drain(id) }

// FleetSnapshot is the per-agent view (assignment, liveness) for /fleet.
func (p *Plane) FleetSnapshot() []AgentView { return p.fl.snapshot() }

// Handler returns the plane's HTTP API (the /jobs and /fleet routes,
// including each job's master metrics on /jobs/{id}/metrics),
// ready to mount under an admin server.
func (p *Plane) Handler() http.Handler { return apiHandler(p) }
