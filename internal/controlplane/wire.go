// Fleet wire protocol: the gob stream spoken between the control plane's
// fleet server and its worker-side agents. It is deliberately tiny — an
// agent registers once with a hello, then receives assignments and
// releases, and reports back pings and per-assignment completions. The
// gradient hot path never touches this channel; an assignment only tells
// the agent where the job's master listens, and the agent's cluster.Worker
// talks to that master directly.
package controlplane

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"isgc/internal/cliconfig"
)

// Fleet message kinds.
const (
	// fleetHello registers an agent (agent → fleet; Name set).
	fleetHello = "hello"
	// fleetPing is the agent's liveness heartbeat (agent → fleet).
	fleetPing = "ping"
	// fleetDone reports that an assignment ended (agent → fleet; JobID and
	// Status set). The agent is idle again once sent.
	fleetDone = "done"
	// fleetAssign hands the agent a new assignment (fleet → agent; Assign
	// set). It supersedes any assignment the agent is still running: the
	// agent stops the old worker first, then starts the new one.
	fleetAssign = "assign"
	// fleetRelease tells the agent to stop its current worker and return
	// to the pool (fleet → agent).
	fleetRelease = "release"
	// fleetStop tells the agent to exit entirely (fleet → agent; plane
	// shutdown).
	fleetStop = "stop"
)

// Assignment completion statuses (fleetDone.Status).
const (
	// StatusExited: the worker run ended on its own — the master said stop,
	// the job's injected fault killed it, or the reconnect budget ran out.
	StatusExited = "exited"
	// StatusStopped: the agent stopped the worker on a release or a
	// superseding assignment.
	StatusStopped = "stopped"
	// StatusJobGone: the master (or its tombstone) said the job no longer
	// exists, so the worker bowed out early instead of burning its redial
	// budget.
	StatusJobGone = "job_gone"
	// StatusError: the worker could not be built or failed hard.
	StatusError = "error"
)

// Assignment is everything an agent needs to serve one worker slot of one
// job: the master to dial and the scheme/data specs that make its loaders
// bit-identical to every other replica of its partitions.
type Assignment struct {
	// JobID names the job; it comes back in the agent's fleetDone.
	JobID string
	// Epoch is the agent's monotonic assignment epoch, stamped by the
	// fleet when the assignment is pushed and echoed in the agent's
	// fleetDone. The fleet only clears the agent's binding when the done's
	// epoch matches the current one — matching on JobID/WorkerID is not
	// enough, because a survivor re-assignment during live re-placement
	// reuses the same job id and may reuse the worker id, and the stale
	// done of the superseded run must not free the agent mid-run.
	Epoch int
	// Generation is the job's master generation (0 on admission, +1 per
	// re-placement) — for logs and events only.
	Generation int
	// WorkerID is this agent's index in the job's placement, in [0, N).
	WorkerID int
	// MasterAddr is the job master's listen address.
	MasterAddr string
	// Scheme is the job's placement spec with N already set to the actual
	// placement size of this generation (shrunk placements after a
	// re-placement carry the shrunk N).
	Scheme cliconfig.SchemeSpec
	// Data is the job's shared dataset/loader spec.
	Data cliconfig.DataSpec
	// ComputePar sizes the worker's gradient pool (0 = GOMAXPROCS).
	ComputePar int
	// HeartbeatInterval is the worker's liveness ping period (0 = 1s).
	HeartbeatInterval time.Duration
	// ReconnectTimeout bounds the worker's redial budget after connection
	// loss (0 disables reconnection).
	ReconnectTimeout time.Duration
	// Delay, when positive, injects an exponential straggler delay with
	// this mean before each upload (tests and demos).
	Delay time.Duration
	// CrashAtStep, when ≥ 0, injects a permanent crash at that step
	// (tests and demos; the scheduler only sets it on generation 0 so a
	// re-placement does not immediately re-kill the replacement worker).
	CrashAtStep int
}

// fleetMsg is the single envelope both directions share.
type fleetMsg struct {
	Kind   string
	Name   string      // fleetHello: agent name
	JobID  string      // fleetDone: which assignment ended
	Status string      // fleetDone: how it ended
	Error  string      // fleetDone: diagnostic for StatusError
	Epoch  int         // fleetDone: the ended assignment's epoch
	Assign *Assignment // fleetAssign payload
}

// validateFleetMsg rejects envelopes that could only come from a confused
// or hostile peer, before they reach any state machine.
func validateFleetMsg(m *fleetMsg) error {
	switch m.Kind {
	case fleetHello:
		if m.Name == "" {
			return fmt.Errorf("controlplane: hello with empty agent name")
		}
	case fleetPing, fleetRelease, fleetStop:
	case fleetDone:
		switch m.Status {
		case StatusExited, StatusStopped, StatusJobGone, StatusError:
		default:
			return fmt.Errorf("controlplane: done with unknown status %q", m.Status)
		}
	case fleetAssign:
		if m.Assign == nil {
			return fmt.Errorf("controlplane: assign without payload")
		}
		if m.Assign.WorkerID < 0 || m.Assign.WorkerID >= m.Assign.Scheme.N {
			return fmt.Errorf("controlplane: assign worker %d out of range [0,%d)",
				m.Assign.WorkerID, m.Assign.Scheme.N)
		}
	default:
		return fmt.Errorf("controlplane: unknown fleet message kind %q", m.Kind)
	}
	return nil
}

// fleetWriteTimeout bounds one outbound send on either side so a stalled
// socket cannot wedge the fleet server's assignment push or an agent's
// completion report.
const fleetWriteTimeout = 5 * time.Second

// fconn is one fleet-protocol connection: a gob codec with serialized,
// deadline-bounded sends (the fleet server pushes assignments from the
// scheduler goroutine while the liveness monitor may concurrently close).
type fconn struct {
	raw net.Conn
	enc *gob.Encoder
	dec *gob.Decoder

	sendMu    sync.Mutex
	closeOnce sync.Once
}

func newFconn(raw net.Conn) *fconn {
	return &fconn{raw: raw, enc: gob.NewEncoder(raw), dec: gob.NewDecoder(raw)}
}

func (c *fconn) send(m *fleetMsg) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	_ = c.raw.SetWriteDeadline(time.Now().Add(fleetWriteTimeout))
	err := c.enc.Encode(m)
	_ = c.raw.SetWriteDeadline(time.Time{})
	return err
}

func (c *fconn) recv() (*fleetMsg, error) {
	var m fleetMsg
	if err := c.dec.Decode(&m); err != nil {
		return nil, err
	}
	if err := validateFleetMsg(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

func (c *fconn) close() {
	c.closeOnce.Do(func() { _ = c.raw.Close() })
}
