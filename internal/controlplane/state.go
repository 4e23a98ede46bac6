// Scheduler state checkpoint/restore: the control plane persists its own
// job table (specs, states, progress counters) through the same
// checkpoint.Store machinery the masters use, so a plane restart recovers
// every job — terminal jobs come back as records, non-terminal jobs are
// re-admitted and resume from their per-job durable checkpoints.
package controlplane

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"isgc/internal/checkpoint"
	"isgc/internal/events"
)

// PlaneStateVersion guards the scheduler checkpoint schema.
const PlaneStateVersion = 1

// persistedJob is one job's durable record inside the scheduler state.
type persistedJob struct {
	ID           string   `json:"id"`
	Spec         JobSpec  `json:"spec"`
	State        JobState `json:"state"`
	N            int      `json:"n"`
	NextStep     int      `json:"next_step"`
	Replacements int      `json:"replacements"`
	Converged    bool     `json:"converged"`
	Error        string   `json:"error,omitempty"`
	SubmittedAt  int64    `json:"submitted_unix_nano"`
	FinishedAt   int64    `json:"finished_unix_nano,omitempty"`
}

// PlaneState is the scheduler's checkpoint payload.
type PlaneState struct {
	Version int            `json:"version"`
	Seq     int            `json:"seq"`
	Jobs    []persistedJob `json:"jobs"`
}

// planeStore wraps the scheduler's checkpoint.Store with a save counter
// (each save gets a fresh "step" so retention rolls correctly) and a lock
// serializing concurrent transition saves, from snapshot to durable file.
type planeStore struct {
	mu    sync.Mutex
	store *checkpoint.Store
	saves int
}

// openState prepares the scheduler's own store and per-job checkpoint
// roots under stateDir. Layout:
//
//	<stateDir>/plane/       scheduler state checkpoints
//	<stateDir>/jobs/<id>/   per-job master checkpoints (params, RNG, step)
func (s *scheduler) openState() error {
	if s.stateDir == "" {
		return nil
	}
	st, err := checkpoint.NewStore(filepath.Join(s.stateDir, "plane"), checkpoint.DefaultRetain)
	if err != nil {
		return err
	}
	s.state = &planeStore{store: st}
	return nil
}

// openJobStore gives a job its durable checkpoint directory (no-op without
// a state dir). Called with s.mu held on the submit path; the directory is
// created eagerly so a later disk problem surfaces at submission.
func (s *scheduler) openJobStore(j *job) error {
	if s.stateDir == "" {
		return nil
	}
	st, err := checkpoint.NewStore(filepath.Join(s.stateDir, "jobs", j.id), checkpoint.DefaultRetain)
	if err != nil {
		return err
	}
	j.store = st
	return nil
}

// saveState persists the current job table. Failures are logged, never
// fatal — the plane keeps scheduling even when its own durability is
// degraded, the same policy the master applies to run checkpoints.
func (s *scheduler) saveState() {
	if s.state == nil {
		return
	}
	// One save at a time, its snapshot included: the Store takes one
	// writer at a time, and the newest file must hold the newest table.
	s.state.mu.Lock()
	defer s.state.mu.Unlock()
	st := PlaneState{Version: PlaneStateVersion}
	s.mu.Lock()
	st.Seq = s.seq
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		pj := persistedJob{
			ID:           j.id,
			Spec:         j.spec,
			State:        j.state,
			N:            j.n,
			NextStep:     j.nextStep,
			Replacements: j.replacements,
			Converged:    j.converged,
			Error:        j.errMsg,
			SubmittedAt:  j.submitted.UnixNano(),
		}
		if !j.finished.IsZero() {
			pj.FinishedAt = j.finished.UnixNano()
		}
		j.mu.Unlock()
		st.Jobs = append(st.Jobs, pj)
	}
	s.mu.Unlock()

	s.state.saves++
	save := s.state.saves
	if _, err := s.state.store.Save(save, &st); err != nil {
		s.events.Error("plane.state_save_failed", "scheduler state checkpoint failed", events.NoStep,
			events.NoWorker, events.Fields{"error": err.Error()})
		return
	}
	s.events.Debug("plane.state_saved", "scheduler state checkpointed", events.NoStep, events.NoWorker,
		events.Fields{"jobs": len(st.Jobs), "save": save})
}

// restoreState rebuilds the job table from the newest scheduler
// checkpoint. Terminal jobs become queryable records; non-terminal jobs
// are re-admitted as pending with resume set, so their first generation
// restores from the job's durable checkpoint (or cold-starts when none was
// written yet). A job whose checkpoint says Completed is promoted straight
// to completed — its run finished durably even if the plane died before
// recording it.
func (s *scheduler) restoreState() error {
	if s.state == nil {
		return nil
	}
	var st PlaneState
	info, err := s.state.store.Latest(&st)
	switch {
	case errors.Is(err, checkpoint.ErrNoCheckpoint):
		return nil // fresh state dir
	case err != nil:
		return fmt.Errorf("controlplane: restore scheduler state: %w", err)
	}
	if st.Version != PlaneStateVersion {
		return fmt.Errorf("controlplane: scheduler state version %d, want %d", st.Version, PlaneStateVersion)
	}
	// Number this life's saves on from the restored one: the Store keeps the
	// highest-numbered saves, so a counter restarted at 0 would have every
	// save of this life pruned as it lands once an earlier life saved
	// DefaultRetain times.
	s.state.saves = info.Step
	restored, resumed := 0, 0
	s.mu.Lock()
	s.seq = st.Seq
	for _, pj := range st.Jobs {
		j := &job{
			id:           pj.ID,
			spec:         pj.Spec,
			state:        pj.State,
			n:            pj.N,
			nextStep:     pj.NextStep,
			replacements: pj.Replacements,
			converged:    pj.Converged,
			errMsg:       pj.Error,
			evicted:      -1,
			submitted:    time.Unix(0, pj.SubmittedAt),
		}
		if pj.FinishedAt != 0 {
			j.finished = time.Unix(0, pj.FinishedAt)
		}
		if err := s.openJobStore(j); err != nil {
			s.mu.Unlock()
			return err
		}
		if !j.state.terminal() {
			j.state = JobPending
			j.resume = true
			j.n = pj.Spec.Scheme.N
			// The durable checkpoint knows better than the spec: a shrunk
			// placement must be re-admitted at its checkpointed size (the
			// master validates n against the checkpoint), and a completed
			// checkpoint needs no fleet at all.
			if j.store != nil {
				var cst checkpoint.State
				if _, err := j.store.Latest(&cst); err == nil {
					if cst.Completed {
						j.state = JobCompleted
						j.resume = false
						j.converged = cst.Step < j.spec.MaxSteps
						j.nextStep = cst.Step
						j.finished = time.Now()
					} else {
						j.n = cst.N
						j.nextStep = cst.Step
					}
				}
			}
			if j.state == JobPending {
				resumed++
			}
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		restored++
	}
	s.mu.Unlock()
	s.updateActive()
	s.events.Info("plane.state_restored", "scheduler state recovered", events.NoStep, events.NoWorker,
		events.Fields{"jobs": restored, "resumed": resumed, "seq": st.Seq})
	return nil
}
