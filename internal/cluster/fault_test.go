package cluster

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/isgc"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
)

// faultyOpts configures one fault-injection cluster run.
type faultyOpts struct {
	w           int
	maxSteps    int
	stepTimeout time.Duration
	deadline    time.Duration
	liveness    time.Duration
	heartbeat   time.Duration
	reconnect   time.Duration
	faults      []straggler.Fault // per worker, may be nil
	delays      []straggler.Model // per worker, may be nil
	events      *events.Log       // shared by master and workers, may be nil
}

// runFaultyCluster launches a master plus its fleet with fault injection
// and returns the master (for post-run accounting) and Run's outcome. A
// watchdog fails the test if the master hangs — the exact regression this
// PR's liveness tracking is meant to prevent.
func runFaultyCluster(t *testing.T, st engine.Strategy, o faultyOpts) (*Master, *engine.Result, error) {
	t.Helper()
	n := st.N()
	data := testData(t)
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	master, err := NewMaster(MasterConfig{
		Addr:            "127.0.0.1:0",
		Strategy:        st,
		Model:           mdl,
		Data:            data,
		LearningRate:    0.3,
		W:               o.w,
		MaxSteps:        o.maxSteps,
		Seed:            42,
		StepTimeout:     o.stepTimeout,
		Deadline:        o.deadline,
		LivenessTimeout: o.liveness,
		Events:          o.events,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Partition(n)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pids := st.Partitions(i)
			loaders := make([]*dataset.Loader, len(pids))
			for j, d := range pids {
				var err error
				loaders[j], err = dataset.NewLoader(parts[d], 16, 42+int64(d)*7919)
				if err != nil {
					t.Error(err)
					return
				}
			}
			var fault straggler.Fault
			if o.faults != nil {
				fault = o.faults[i]
			}
			var delay straggler.Model
			if o.delays != nil {
				delay = o.delays[i]
			}
			wk, err := NewWorker(WorkerConfig{
				Addr:              master.Addr(),
				ID:                i,
				Partitions:        pids,
				Loaders:           loaders,
				Model:             mdl,
				Encode:            SumEncoder(),
				Delay:             delay,
				DelaySeed:         int64(i) + 1,
				Fault:             fault,
				FaultSeed:         int64(i) + 1,
				HeartbeatInterval: o.heartbeat,
				ReconnectTimeout:  o.reconnect,
				Events:            o.events,
			})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := wk.Run(); err != nil {
				t.Error(err)
			}
		}()
	}

	var res *engine.Result
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, runErr = master.Run()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("master hung: the liveness-aware gather must terminate in bounded time")
	}
	wg.Wait()
	return master, res, runErr
}

// newCRStrategy builds IS-GC over CR(n, 2) — the flexible scheme used by
// the fault scenarios (it can decode any subset of workers).
func newCRStrategy(t *testing.T, n int) engine.Strategy {
	t.Helper()
	p, err := placement.CR(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := engine.NewISGC(isgc.New(p, 7))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// The acceptance scenario: n=12, w=8, three workers crash at step 5. The
// alive set (9) still covers the wait target (8), so training proceeds at
// full target with zero degradation and converges.
func TestClusterSurvivesCrashesWithinSlack(t *testing.T) {
	st := newCRStrategy(t, 12)
	faults := make([]straggler.Fault, 12)
	for i := 0; i < 3; i++ {
		faults[i] = straggler.CrashAt{Step: 5}
	}
	// A few ms per step, so the run outlasts the scheduling noise between a
	// crash and the master noticing the closed socket.
	delays := make([]straggler.Model, 12)
	for i := range delays {
		delays[i] = straggler.Constant{D: 3 * time.Millisecond}
	}
	_, res, err := runFaultyCluster(t, st, faultyOpts{w: 8, maxSteps: 15, faults: faults, delays: delays})
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	if res.Run.Steps() != 15 {
		t.Fatalf("steps = %d, want 15: the run must survive the crashes", res.Run.Steps())
	}
	for _, rec := range res.Run.Records {
		if rec.Available != 8 {
			t.Fatalf("step %d gathered %d, want the full target 8 (9 alive ≥ 8)", rec.Step, rec.Available)
		}
		if rec.Degraded {
			t.Fatalf("step %d degraded though the alive set covers the target", rec.Step)
		}
	}
	// Liveness accounting: once the crashes land, the records report the
	// shrunken fleet.
	last := res.Run.Records[len(res.Run.Records)-1]
	if last.Alive != 9 {
		t.Fatalf("final alive = %d, want 9 after 3 crashes", last.Alive)
	}
	first, lastLoss := res.Run.Records[0].Loss, res.Run.FinalLoss()
	if !(lastLoss < first) {
		t.Fatalf("loss %v → %v, expected decrease despite crashes", first, lastLoss)
	}
}

// The over-slack acceptance scenario: five crashes leave 7 alive, below
// the w=8 target. The flexible scheme degrades to the alive set instead of
// hanging and keeps training.
func TestClusterDegradesBeyondSlack(t *testing.T) {
	st := newCRStrategy(t, 12)
	faults := make([]straggler.Fault, 12)
	for i := 0; i < 5; i++ {
		faults[i] = straggler.CrashAt{Step: 3}
	}
	_, res, err := runFaultyCluster(t, st, faultyOpts{w: 8, maxSteps: 10, faults: faults})
	if err != nil {
		t.Fatalf("master must degrade, not fail: %v", err)
	}
	if res.Run.Steps() != 10 {
		t.Fatalf("steps = %d, want 10", res.Run.Steps())
	}
	if res.Run.DegradedSteps() == 0 {
		t.Fatal("no degraded steps recorded after losing 5 of 12 workers with w=8")
	}
	for _, rec := range res.Run.Records {
		if rec.Step < 3 && (rec.Available != 8 || rec.Degraded) {
			t.Fatalf("step %d: available=%d degraded=%v before any crash", rec.Step, rec.Available, rec.Degraded)
		}
		if rec.Step > 3 {
			if !rec.Degraded {
				t.Fatalf("step %d not degraded with only 7 alive for w=8", rec.Step)
			}
			if rec.Available > 7 {
				t.Fatalf("step %d gathered %d from 7 alive workers", rec.Step, rec.Available)
			}
			if rec.Alive != 7 {
				t.Fatalf("step %d alive = %d, want 7", rec.Step, rec.Alive)
			}
		}
	}
	first, last := res.Run.Records[0].Loss, res.Run.FinalLoss()
	if !(last < first) {
		t.Fatalf("loss %v → %v, expected decrease in degraded mode", first, last)
	}
}

// A rigid scheme cannot decode a subset: worker loss must produce a
// descriptive error in bounded time, not a hang (the master.go:234 bug).
func TestRigidSchemeFailsFastOnWorkerLoss(t *testing.T) {
	st, err := engine.NewSyncSGD(4)
	if err != nil {
		t.Fatal(err)
	}
	faults := []straggler.Fault{nil, nil, straggler.CrashAt{Step: 2}, nil}
	_, _, runErr := runFaultyCluster(t, st, faultyOpts{w: 4, maxSteps: 20, faults: faults})
	if runErr == nil {
		t.Fatal("Sync-SGD must fail when a worker dies")
	}
	if !strings.Contains(runErr.Error(), "failing fast") {
		t.Fatalf("error %q must carry the fail-fast diagnostic", runErr)
	}
}

// TestGatherExits pins the gather's error exits under both policies: each
// ends the run in bounded time with its own diagnostic. Every upload dropped
// under a deadline outlasts the step timeout; a rigid scheme short of one
// gradient times out; a fleet that dies mid-run is reported lost whichever
// policy gathers.
func TestGatherExits(t *testing.T) {
	all := func(f straggler.Fault) []straggler.Fault { return []straggler.Fault{f, f, f, f} }
	for _, tc := range []struct {
		name    string
		rigid   bool
		opts    faultyOpts
		wantErr string
	}{
		{"deadline, every upload dropped", false, faultyOpts{deadline: 20 * time.Millisecond,
			stepTimeout: 150 * time.Millisecond, faults: all(straggler.DropWithProb{P: 1})},
			"no gradient within step timeout"},
		{"rigid, one worker drops", true, faultyOpts{stepTimeout: 150 * time.Millisecond,
			faults: []straggler.Fault{nil, nil, nil, straggler.DropWithProb{P: 1}}},
			"gathered 3 of 4 needed gradients within"},
		{"deadline, fleet lost", false, faultyOpts{deadline: 20 * time.Millisecond,
			faults: all(straggler.CrashAt{Step: 2})}, "all 4 workers lost"},
		{"fastest-w, fleet lost", false, faultyOpts{faults: all(straggler.CrashAt{Step: 2})},
			"all 4 workers lost"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := newCRStrategy(t, 4)
			if tc.rigid {
				var err error
				if st, err = engine.NewSyncSGD(4); err != nil {
					t.Fatal(err)
				}
			}
			o := tc.opts
			o.w, o.maxSteps, o.heartbeat = 4, 20, 50*time.Millisecond
			_, _, err := runFaultyCluster(t, st, o)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run ended with %v, want an error carrying %q", err, tc.wantErr)
			}
		})
	}
}

// Disconnect-then-rejoin round trip: the worker drops its connection
// mid-run, redials with backoff, re-registers, and the master accepts the
// rejoin instead of treating the reborn id as a fatal duplicate.
func TestWorkerDisconnectRejoin(t *testing.T) {
	st := newCRStrategy(t, 4)
	faults := []straggler.Fault{nil, nil, straggler.DisconnectAt{Step: 3}, nil}
	// Worker 0 paces the run at 30 ms a step: a redial refused because the
	// master has not yet noticed the old connection close retries after a
	// 25 ms backoff, which must cost the wanderer one step, not the rest of
	// a microsecond-per-step run.
	delays := []straggler.Model{straggler.Constant{D: 30 * time.Millisecond}, nil, nil, nil}
	master, res, err := runFaultyCluster(t, st, faultyOpts{
		w: 4, maxSteps: 12, faults: faults, delays: delays, reconnect: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	if res.Run.Steps() != 12 {
		t.Fatalf("steps = %d, want 12", res.Run.Steps())
	}
	if master.Rejoins() != 1 {
		t.Fatalf("rejoins = %d, want 1", master.Rejoins())
	}
	// After the round trip the full fleet serves again.
	last := res.Run.Records[len(res.Run.Records)-1]
	if last.Available != 4 || last.Alive != 4 {
		t.Fatalf("final step: available=%d alive=%d, want the full fleet back", last.Available, last.Alive)
	}
	// The wanderer missed at most a couple of steps around the disconnect.
	if got := master.Health().Workers[2].AcceptedSteps; got < 9 {
		t.Fatalf("worker 2 arrived only %d/12 times; the rejoin must resume participation", got)
	}
}

// A rejoining worker is re-handed the in-flight step; the fault model
// must not re-fire on that re-delivery. Regression: DisconnectAt used to
// re-trigger on the re-delivered step, tearing the fresh connection down
// in a tight loop (thousands of rejoins) until the master advanced past
// the step. The slow worker stretches the disconnect step to ~300 ms,
// which is exactly the window the storm needs.
func TestDisconnectDoesNotRefireOnRedeliveredStep(t *testing.T) {
	st := newCRStrategy(t, 4)
	faults := []straggler.Fault{nil, nil, straggler.DisconnectAt{Step: 3}, nil}
	delays := []straggler.Model{straggler.Constant{D: 300 * time.Millisecond}, nil, nil, nil}
	master, res, err := runFaultyCluster(t, st, faultyOpts{
		w: 4, maxSteps: 6, faults: faults, delays: delays,
		reconnect: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	if res.Run.Steps() != 6 {
		t.Fatalf("steps = %d, want 6", res.Run.Steps())
	}
	if got := master.Rejoins(); got != 1 {
		t.Fatalf("rejoins = %d, want exactly 1 — the fault re-fired on the re-delivered step", got)
	}
}

// Workers that heartbeat but never upload (pure gradient loss) must not
// stall the fastest-w gather: the step timeout degrades the step.
func TestDropFaultDegradesViaStepTimeout(t *testing.T) {
	st := newCRStrategy(t, 4)
	faults := []straggler.Fault{
		nil,
		straggler.DropWithProb{P: 1},
		straggler.DropWithProb{P: 1},
		straggler.DropWithProb{P: 1},
	}
	_, res, err := runFaultyCluster(t, st, faultyOpts{
		w: 4, maxSteps: 3, faults: faults,
		stepTimeout: 250 * time.Millisecond, heartbeat: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	for _, rec := range res.Run.Records {
		if rec.Available != 1 {
			t.Fatalf("step %d gathered %d, want only the one uploading worker", rec.Step, rec.Available)
		}
		if !rec.Degraded {
			t.Fatalf("step %d must be marked degraded (timeout-bounded gather)", rec.Step)
		}
		if rec.Alive != 4 {
			t.Fatalf("step %d alive = %d; droppers are alive, just lossy", rec.Step, rec.Alive)
		}
	}
}

// A registered connection that goes completely silent (no heartbeats, no
// gradients — a hung process, not a dead socket) is reaped by the liveness
// monitor and the gather degrades around it.
func TestLivenessTimeoutReapsSilentWorker(t *testing.T) {
	st, err := engine.NewISSGD(2)
	if err != nil {
		t.Fatal(err)
	}
	data := testData(t)
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	master, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
		LearningRate: 0.3, W: 2, MaxSteps: 3, Seed: 42,
		LivenessTimeout: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Partition(2)
	if err != nil {
		t.Fatal(err)
	}

	// Worker 0 is real and heartbeats fast enough to stay off the reaper's
	// list even while idle between steps.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		loader, err := dataset.NewLoader(parts[0], 16, 42)
		if err != nil {
			t.Error(err)
			return
		}
		wk, err := NewWorker(WorkerConfig{
			Addr: master.Addr(), ID: 0, Partitions: []int{0},
			Loaders: []*dataset.Loader{loader}, Model: mdl, Encode: SumEncoder(),
			HeartbeatInterval: 50 * time.Millisecond,
		})
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = wk.Run()
	}()

	done := make(chan struct{})
	var res *engine.Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = master.Run()
	}()

	// Worker 1 registers and then hangs: open socket, no traffic at all.
	raw, err := net.Dial("tcp", master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := clientHello(newConn(raw, 0, nil), 1, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("master hung on a silent worker")
	}
	wg.Wait()
	if runErr != nil {
		t.Fatalf("master: %v", runErr)
	}
	if res.Run.Steps() != 3 {
		t.Fatalf("steps = %d, want 3", res.Run.Steps())
	}
	if res.Run.DegradedSteps() != 3 {
		t.Fatalf("degraded steps = %d, want all 3 (only worker 0 ever uploads)", res.Run.DegradedSteps())
	}
	last := res.Run.Records[len(res.Run.Records)-1]
	if last.Alive != 1 {
		t.Fatalf("final alive = %d; the silent worker must be reaped", last.Alive)
	}
}

// A gradient whose dimension mismatches the model must be rejected before
// it reaches Strategy.Recover / linalg.AXPY, where it would panic the
// master mid-run.
func TestMasterRejectsMalformedGradient(t *testing.T) {
	st, err := engine.NewSyncSGD(1)
	if err != nil {
		t.Fatal(err)
	}
	data := testData(t)
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	dim := len(mdl.InitParams(42))
	master, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
		LearningRate: 0.3, W: 1, MaxSteps: 1, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var res *engine.Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = master.Run()
	}()

	raw, err := net.Dial("tcp", master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c := newConn(raw, 0, nil)
	if err := clientHello(c, 0, 0); err != nil {
		t.Fatal(err)
	}
	step, err := c.recv()
	if err != nil || step.Kind != MsgStep {
		t.Fatalf("expected a step broadcast, got %v %v", step, err)
	}
	if len(step.Params) != dim {
		t.Fatalf("params dim = %d, want %d", len(step.Params), dim)
	}
	// First a malformed gradient (wrong dimension), then a valid one.
	if err := c.send(&Envelope{Kind: MsgGradient, Worker: 0, Step: step.Step, Coded: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := c.send(&Envelope{Kind: MsgGradient, Worker: 0, Step: step.Step, Coded: make([]float64, dim)}); err != nil {
		t.Fatal(err)
	}

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("master hung after a malformed gradient")
	}
	if runErr != nil {
		t.Fatalf("master must survive the malformed gradient: %v", runErr)
	}
	if res.Run.Steps() != 1 {
		t.Fatalf("steps = %d, want 1", res.Run.Steps())
	}
	if master.MalformedGradients() != 1 {
		t.Fatalf("malformed count = %d, want 1", master.MalformedGradients())
	}
}
