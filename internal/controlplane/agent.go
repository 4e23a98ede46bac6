package controlplane

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"isgc/internal/cluster"
	"isgc/internal/events"
	"isgc/internal/model"
	"isgc/internal/straggler"
)

// AgentConfig configures one fleet agent.
type AgentConfig struct {
	// FleetAddr is the control plane's fleet listener.
	FleetAddr string
	// Name identifies this agent in the pool; it must be unique per fleet
	// (a duplicate name supersedes the older registration).
	Name string
	// PingInterval is the liveness heartbeat period (default 500ms).
	PingInterval time.Duration
	// DialTimeout bounds the fleet dial (default 5s).
	DialTimeout time.Duration
	// Events, when non-nil, receives the agent's structured event stream.
	Events *events.Log
}

// Agent is the worker-side half of the fleet: one long-lived process (or
// goroutine) that registers with the control plane, then serves whatever
// assignments the scheduler pushes — building a cluster.Worker per
// assignment from the shared scheme/data specs, running it, and reporting
// back when it ends. One agent serves one worker slot at a time; a new
// assignment supersedes the old one (the previous worker is stopped
// first), which is exactly the re-placement handoff path.
type Agent struct {
	cfg AgentConfig
	c   *fconn

	mu         sync.Mutex
	worker     *cluster.Worker // current run's worker (nil between runs)
	curJob     string          // current assignment's job id
	curDone    chan struct{}   // closed when the current run goroutine exits
	curStopped bool            // this run was stopped by the agent (release/supersede)
	lastEpoch  int             // epoch of the newest assignment, echoed in dones

	stopping atomic.Bool
	stopOnce sync.Once
}

// NewAgent validates the configuration; nothing dials until Run.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("controlplane: agent needs a name")
	}
	if cfg.FleetAddr == "" {
		return nil, fmt.Errorf("controlplane: agent needs a fleet address")
	}
	if cfg.PingInterval <= 0 {
		cfg.PingInterval = defaultPingInterval
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	return &Agent{cfg: cfg}, nil
}

// Run registers with the fleet and serves assignments until the plane says
// stop, Stop/Kill is called, or the fleet connection breaks.
func (a *Agent) Run() error {
	raw, err := net.DialTimeout("tcp", a.cfg.FleetAddr, a.cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("controlplane: agent %s: dial fleet: %w", a.cfg.Name, err)
	}
	c := newFconn(raw)
	a.mu.Lock()
	a.c = c
	a.mu.Unlock()
	if err := c.send(&fleetMsg{Kind: fleetHello, Name: a.cfg.Name}); err != nil {
		c.close()
		return fmt.Errorf("controlplane: agent %s: hello: %w", a.cfg.Name, err)
	}
	a.cfg.Events.Info("agent.registered", "registered with fleet", events.NoStep, events.NoWorker,
		events.Fields{"agent": a.cfg.Name, "fleet": a.cfg.FleetAddr})

	pingDone := make(chan struct{})
	go a.pingLoop(c, pingDone)
	defer func() {
		close(pingDone)
		a.stopCurrent()
		c.close()
	}()

	for {
		m, err := c.recv()
		if err != nil {
			if a.stopping.Load() {
				return nil
			}
			return fmt.Errorf("controlplane: agent %s: fleet connection lost: %w", a.cfg.Name, err)
		}
		switch m.Kind {
		case fleetStop:
			a.cfg.Events.Info("agent.stopped", "fleet said stop", events.NoStep, events.NoWorker,
				events.Fields{"agent": a.cfg.Name})
			return nil
		case fleetRelease:
			// Stop the current worker; its run goroutine reports the done.
			// A release for a job this agent no longer runs is stale —
			// ignoring it is what makes release job-scoped end to end.
			a.mu.Lock()
			cur, busy, epoch := a.curJob, a.curDone != nil, a.lastEpoch
			a.mu.Unlock()
			switch {
			case busy && (m.JobID == "" || m.JobID == cur):
				a.stopCurrent()
			case !busy && m.JobID == "":
				// Idle, unscoped release: ack so the pool view converges.
				_ = c.send(&fleetMsg{Kind: fleetDone, Status: StatusStopped, Epoch: epoch})
			}
		case fleetAssign:
			a.stopCurrent()
			a.startAssignment(c, m.Assign)
		}
	}
}

// pingLoop keeps the agent registered while a worker run (or nothing at
// all) occupies the main loop.
func (a *Agent) pingLoop(c *fconn, done chan struct{}) {
	t := time.NewTicker(a.cfg.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			if c.send(&fleetMsg{Kind: fleetPing}) != nil {
				return
			}
		}
	}
}

// stopCurrent stops the in-flight worker run, if any, and waits for its
// goroutine (which sends the fleetDone) to exit. Reports whether there was
// a run to stop.
func (a *Agent) stopCurrent() bool {
	a.mu.Lock()
	w, done := a.worker, a.curDone
	if done != nil {
		a.curStopped = true
	}
	a.mu.Unlock()
	if done == nil {
		return false
	}
	if w != nil {
		w.Stop()
	}
	<-done
	return true
}

// startAssignment builds the worker for one assignment and runs it in the
// background; the run goroutine owns the fleetDone report.
func (a *Agent) startAssignment(c *fconn, as *Assignment) {
	a.mu.Lock()
	a.lastEpoch = as.Epoch
	a.mu.Unlock()
	a.cfg.Events.Info("agent.assigned", "received assignment", events.NoStep, as.WorkerID,
		events.Fields{"agent": a.cfg.Name, "job": as.JobID, "generation": as.Generation,
			"master": as.MasterAddr, "n": as.Scheme.N, "epoch": as.Epoch})
	w, err := buildWorker(as, a.cfg.Events)
	if err != nil {
		a.cfg.Events.Error("agent.assignment_failed", "could not build worker", events.NoStep,
			as.WorkerID, events.Fields{"agent": a.cfg.Name, "job": as.JobID, "error": err.Error()})
		_ = c.send(&fleetMsg{Kind: fleetDone, JobID: as.JobID, Status: StatusError, Error: err.Error(),
			Epoch: as.Epoch})
		return
	}
	done := make(chan struct{})
	a.mu.Lock()
	a.worker, a.curJob, a.curDone, a.curStopped = w, as.JobID, done, false
	a.mu.Unlock()
	go func() {
		defer close(done)
		steps, runErr := w.Run()
		a.mu.Lock()
		stopped := a.curStopped
		a.worker, a.curJob, a.curDone = nil, "", nil
		a.mu.Unlock()
		status := StatusExited
		var errMsg string
		switch {
		case w.JobGone():
			status = StatusJobGone
		case runErr != nil:
			status, errMsg = StatusError, runErr.Error()
		case stopped || a.stopping.Load():
			status = StatusStopped
		}
		a.cfg.Events.Info("agent.run_finished", "worker run ended", events.NoStep, as.WorkerID,
			events.Fields{"agent": a.cfg.Name, "job": as.JobID, "steps": steps, "status": status})
		_ = c.send(&fleetMsg{Kind: fleetDone, JobID: as.JobID, Status: status, Error: errMsg,
			Epoch: as.Epoch})
	}()
}

// Stop makes the agent leave the fleet gracefully: the current worker (if
// any) is stopped and the fleet connection closed. Run returns nil.
func (a *Agent) Stop() {
	a.stopOnce.Do(func() {
		a.stopping.Store(true)
		a.stopCurrent()
		a.mu.Lock()
		c := a.c
		a.mu.Unlock()
		if c != nil {
			c.close()
		}
	})
}

// Kill simulates abrupt agent death for tests and drills: the fleet
// connection and the current worker's master connection are torn down with
// no farewell on either channel — from the control plane's view this agent
// just vanished, and from the job master's view its worker went dark. Run
// returns an error (connection lost), matching a killed process.
func (a *Agent) Kill() {
	a.mu.Lock()
	w := a.worker
	c := a.c
	a.mu.Unlock()
	if w != nil {
		w.Stop() // closes the master connection without a farewell message
	}
	if c != nil {
		c.close()
	}
}

// buildWorker constructs the cluster.Worker an assignment describes: the
// placement row, the deterministic per-partition loaders, and any injected
// delay/fault — the same derivation the isgc-worker CLI performs from its
// flags, which is what keeps partition replicas bit-identical.
func buildWorker(as *Assignment, ev *events.Log) (*cluster.Worker, error) {
	p, err := as.Scheme.Build()
	if err != nil {
		return nil, err
	}
	if as.WorkerID >= p.N() {
		return nil, fmt.Errorf("controlplane: worker %d out of range for n=%d", as.WorkerID, p.N())
	}
	data, err := as.Data.BuildDataset()
	if err != nil {
		return nil, err
	}
	parts := p.Partitions(as.WorkerID)
	loaders, err := as.Data.BuildLoaders(data, p.N(), parts)
	if err != nil {
		return nil, err
	}
	var delay straggler.Model
	if as.Delay > 0 {
		delay = straggler.Exponential{Mean: as.Delay}
	}
	var fault straggler.Fault
	if as.CrashAtStep >= 0 {
		fault = straggler.CrashAt{Step: as.CrashAtStep}
	}
	return cluster.NewWorker(cluster.WorkerConfig{
		Addr:              as.MasterAddr,
		ID:                as.WorkerID,
		Partitions:        parts,
		Loaders:           loaders,
		Model:             model.SoftmaxRegression{Features: as.Data.Features, Classes: as.Data.Classes},
		Encode:            cluster.SumEncoder(),
		Delay:             delay,
		DelaySeed:         as.Data.Seed + int64(as.WorkerID),
		Fault:             fault,
		FaultSeed:         as.Data.Seed + int64(as.WorkerID),
		ComputePar:        as.ComputePar,
		HeartbeatInterval: as.HeartbeatInterval,
		ReconnectTimeout:  as.ReconnectTimeout,
		Events:            ev,
	})
}
