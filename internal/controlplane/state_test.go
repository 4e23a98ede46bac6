package controlplane

import (
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"isgc/internal/checkpoint"
)

// TestPlaneStateCheckpointRestore covers the scheduler's own durability: a
// plane stopped mid-run persists its job table and each job's run
// checkpoint; a second plane over the same state dir re-admits the job and
// completes it from where the first left off.
func TestPlaneStateCheckpointRestore(t *testing.T) {
	dir := t.TempDir()

	spec := elasticSpec() // slow enough to stop mid-run
	spec.CheckpointEvery = 5

	p1, err := New(Config{FleetAddr: "127.0.0.1:0", StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Start(); err != nil {
		t.Fatal(err)
	}
	agents1 := startAgents(t, p1, 3)
	waitForIdle(t, p1, 3)
	id, err := p1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitForStep(t, p1, id, 8)
	p1.Stop() // quiesce at a step boundary, checkpoint everything
	stopAgents(agents1)

	midStatus := mustJob(t, p1, id)
	if midStatus.State.terminal() {
		t.Fatalf("shutdown must leave the job resumable, got %s", midStatus.State)
	}

	// Second plane life: restore over the same state dir with a fresh
	// fleet; the job re-admits and runs to completion.
	p2, err := New(Config{FleetAddr: "127.0.0.1:0", StateDir: dir, Restore: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Start(); err != nil {
		t.Fatal(err)
	}
	defer p2.Stop()
	restored := mustJob(t, p2, id)
	if restored.State != JobPending {
		t.Fatalf("restored job is %s, want pending", restored.State)
	}
	agents2 := startAgents(t, p2, 3)
	defer stopAgents(agents2)
	st := waitForState(t, p2, id, JobCompleted)
	if st.Step != spec.MaxSteps {
		t.Fatalf("resumed job finished at step %d, want %d", st.Step, spec.MaxSteps)
	}
	run, _, _ := p2.JobResult(id)
	if n := run.Steps(); n == 0 || n >= spec.MaxSteps {
		t.Fatalf("second life recorded %d steps; the restore must resume mid-run, not restart", n)
	}
	if first := run.Records[0].Step; first == 0 {
		t.Fatal("second life started at step 0; it must resume from the checkpoint")
	}

	// New submissions on the restored plane continue the id sequence
	// instead of colliding with the restored job.
	id2, err := p2.Submit(steadySpec())
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("restored plane reissued job id %s", id2)
	}
	waitForState(t, p2, id2, JobCompleted)
}

// TestRestoredTerminalJobsAreRecords: terminal jobs come back queryable
// but are never re-admitted.
func TestRestoredTerminalJobsAreRecords(t *testing.T) {
	dir := t.TempDir()
	p1, err := New(Config{FleetAddr: "127.0.0.1:0", StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Start(); err != nil {
		t.Fatal(err)
	}
	agents := startAgents(t, p1, 3)
	waitForIdle(t, p1, 3)
	id, err := p1.Submit(steadySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, p1, id, JobCompleted)
	p1.Stop()
	stopAgents(agents)

	p2, err := New(Config{FleetAddr: "127.0.0.1:0", StateDir: dir, Restore: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Start(); err != nil {
		t.Fatal(err)
	}
	defer p2.Stop()
	st := mustJob(t, p2, id)
	if st.State != JobCompleted {
		t.Fatalf("restored completed job is %s", st.State)
	}
	// No fleet attached: give the admission loop a moment to (wrongly) try
	// to run it, then confirm it is still a record.
	time.Sleep(100 * time.Millisecond)
	if st := mustJob(t, p2, id); st.State != JobCompleted {
		t.Fatalf("restored completed job was re-admitted into %s", st.State)
	}
}

// Durable state from binaries that still had the -wire knob: each spec
// carries "wire", which JobSpec no longer has. Byte-for-byte what those
// binaries wrote (job-001 finished, job-002 was mid-run when the plane
// stopped).
const (
	preWireRemovalSpec = `{"name":"old-gob","scheme":{"Scheme":"cr","N":3,"C":2,"C1":0,"G":0},` +
		`"data":{"Samples":240,"Features":6,"Classes":3,"Separation":1.5,"Seed":42,"Batch":8},` +
		`"learning_rate":0.2,"max_steps":20,"compute_par":1,"wire":"gob","checkpoint_every":10,` +
		`"liveness_timeout":2000000000,"permanent_after":4000000000,"reconnect_timeout":10000000000}`
	preWireRemovalState = `{"version":1,"seq":2,"jobs":[` +
		`{"id":"job-001","spec":{"name":"old-binary","scheme":{"Scheme":"cr","N":3,"C":2,"C1":0,"G":0},` +
		`"data":{"Samples":240,"Features":6,"Classes":3,"Separation":1.5,"Seed":42,"Batch":8},` +
		`"learning_rate":0.2,"max_steps":20,"compute_par":1,"wire":"binary","checkpoint_every":10,` +
		`"liveness_timeout":2000000000,"permanent_after":4000000000,"reconnect_timeout":10000000000},` +
		`"state":"completed","n":3,"next_step":20,"replacements":0,"converged":false,` +
		`"submitted_unix_nano":1760000000000000000,"finished_unix_nano":1760000001000000000},` +
		`{"id":"job-002","spec":` + preWireRemovalSpec + `,` +
		`"state":"running","n":3,"next_step":0,"replacements":0,"converged":false,` +
		`"submitted_unix_nano":1760000002000000000}]}`
)

// TestPreWireRemovalStateRestores: the -restore promise covers state
// directories from older binaries. A plane state whose specs carry the
// removed "wire" field restores — the finished job as a record, the
// unfinished one re-admitted and run to completion — and a spec file from
// the same era still submits.
func TestPreWireRemovalStateRestores(t *testing.T) {
	dir := t.TempDir()
	st, err := checkpoint.NewStore(filepath.Join(dir, "plane"), checkpoint.DefaultRetain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(1, json.RawMessage(preWireRemovalState)); err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{FleetAddr: "127.0.0.1:0", StateDir: dir, Restore: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if got := mustJob(t, p, "job-001").State; got != JobCompleted {
		t.Fatalf("restored finished job is %s, want completed", got)
	}
	if got := mustJob(t, p, "job-002").State; got != JobPending {
		t.Fatalf("restored unfinished job is %s, want pending", got)
	}
	agents := startAgents(t, p, 3)
	defer stopAgents(agents)
	if st := waitForState(t, p, "job-002", JobCompleted); st.Step != 20 {
		t.Fatalf("re-admitted job finished at step %d, want 20", st.Step)
	}

	var spec JobSpec
	if err := json.Unmarshal([]byte(preWireRemovalSpec), &spec); err != nil {
		t.Fatal(err)
	}
	id, err := p.Submit(spec)
	if err != nil {
		t.Fatalf("old spec refused: %v", err)
	}
	waitForState(t, p, id, JobCompleted)
}

// startAgents/stopAgents are the non-Cleanup variants for tests that cycle
// multiple plane lives in one test body.
func startAgents(t *testing.T, p *Plane, n int) []*Agent {
	t.Helper()
	agents := make([]*Agent, n)
	for i := range agents {
		a, err := NewAgent(AgentConfig{FleetAddr: p.FleetAddr(), Name: agentName(i)})
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = a
		go func() { _ = a.Run() }()
	}
	return agents
}

func stopAgents(agents []*Agent) {
	for _, a := range agents {
		a.Stop()
	}
}

func agentName(i int) string { return string(rune('a'+i)) + "-agent" }

func mustJob(t *testing.T, p *Plane, id string) JobStatus {
	t.Helper()
	st, ok := p.Job(id)
	if !ok {
		t.Fatalf("job %s is unknown", id)
	}
	return st
}

// TestConcurrentSubmitsSaveOneAtATime: submissions racing from several
// goroutines save the plane's state one at a time — the Store takes one
// writer at a time — and, since each save's snapshot is taken under the
// lock that numbers it, the newest checkpoint holds every job.
func TestConcurrentSubmitsSaveOneAtATime(t *testing.T) {
	dir := t.TempDir()
	p, err := New(Config{FleetAddr: "127.0.0.1:0", StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	const jobs = 8
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Submit(steadySpec()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	store, err := checkpoint.NewStore(filepath.Join(dir, "plane"), 0)
	if err != nil {
		t.Fatal(err)
	}
	var st PlaneState
	if _, err := store.Latest(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != jobs || st.Seq != jobs {
		t.Fatalf("newest plane checkpoint holds %d jobs at seq %d, want %d and %d", len(st.Jobs), st.Seq, jobs, jobs)
	}
}

// TestThirdLifeRestoresSecondLifesTable: a restored plane numbers its saves
// on from the checkpoint it restored, so a job the second life admitted is
// in the table the third life restores — even after the first life saved
// more often than the store retains, where a save counter restarted at 0
// would have had every second-life save pruned as it landed.
func TestThirdLifeRestoresSecondLifesTable(t *testing.T) {
	dir := t.TempDir()
	life := func(restore bool, submit int) (*Plane, []string) {
		t.Helper()
		p, err := New(Config{FleetAddr: "127.0.0.1:0", StateDir: dir, Restore: restore})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		var ids []string
		for i := 0; i < submit; i++ {
			id, err := p.Submit(steadySpec())
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		p.Stop()
		return p, ids
	}
	_, first := life(false, checkpoint.DefaultRetain+2)
	_, second := life(true, 1)
	p3, _ := life(true, 0)
	for _, id := range append(first, second...) {
		mustJob(t, p3, id)
	}
}
