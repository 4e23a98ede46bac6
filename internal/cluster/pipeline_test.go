package cluster

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/isgc"
	"isgc/internal/metrics"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
)

// runShapedCluster runs one CR(4,2) IS-GC cluster with arbitrary tweaks to
// the master and per-worker configs, returning the result and the master's
// metrics for wire assertions. With no delays and W = 4 the full
// fleet arrives every step, so two runs differing only in transport or
// scheduling knobs must produce bit-identical records and parameters.
func runShapedCluster(t *testing.T, shapeMaster func(*MasterConfig), shapeWorker func(i int, c *WorkerConfig)) (*engine.Result, *MasterMetrics) {
	t.Helper()
	p, err := placement.CR(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := engine.NewISGC(isgc.New(p, 7))
	if err != nil {
		t.Fatal(err)
	}
	return runStrategyCluster(t, st, shapeMaster, shapeWorker)
}

// runStrategyCluster is runShapedCluster with the scheme under the
// caller's control.
func runStrategyCluster(t *testing.T, st engine.Strategy, shapeMaster func(*MasterConfig), shapeWorker func(i int, c *WorkerConfig)) (*engine.Result, *MasterMetrics) {
	t.Helper()
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	data := testData(t)

	reg := metrics.NewRegistry()
	mm := NewMasterMetrics(reg)
	mcfg := MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
		LearningRate: 0.3, W: 4, MaxSteps: 8, Seed: 42,
		AcceptTimeout: 10 * time.Second, Metrics: mm,
	}
	if shapeMaster != nil {
		shapeMaster(&mcfg)
	}
	master, err := NewMaster(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wlog := events.New(events.Config{})
	for i := 0; i < 4; i++ {
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
			wcfg := WorkerConfig{
				Addr: master.Addr(), ID: i, Partitions: pids, Loaders: loaders,
				Model: mdl, Encode: SumEncoder(),
				DelaySeed: int64(i) + 1, Events: wlog,
			}
			if shapeWorker != nil {
				shapeWorker(i, &wcfg)
			}
			wk, err := NewWorker(wcfg)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := wk.Run(); err != nil {
				t.Error(err)
			}
		}()
	}
	res, err := master.Run()
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	wg.Wait()
	if st.WaitFor(mcfg.W) == st.N() && mcfg.Deadline == 0 {
		checkWaitAllAbandons(t, res, wlog)
	}
	return res, mm
}

// normalizeRun strips wall-clock noise so two runs can be compared exactly.
func normalizeRun(res *engine.Result) {
	for j := range res.Run.Records {
		res.Run.Records[j].Elapsed = 0
	}
}

// TestDeadlineGatherEquivalentToFastestW pins the gather policies against
// each other: a deadline that every worker beats must produce the exact
// records and final parameters of the fastest-w run, bit for bit — before
// its cut the deadline policy's target is all n, so the gather returns as
// soon as all n arrived. (That the one schedule
// itself is deterministic is pinned by engine ≡ cluster,
// TestTCPMatchesInProcessEngine, and the engine's golden digests.)
func TestDeadlineGatherEquivalentToFastestW(t *testing.T) {
	fastest, _ := runShapedCluster(t, nil, nil)
	normalizeRun(fastest)
	if len(fastest.Run.Records) == 0 || len(fastest.Params) == 0 {
		t.Fatal("empty run")
	}
	dl, _ := runShapedCluster(t, func(c *MasterConfig) { c.Deadline = time.Minute }, nil)
	normalizeRun(dl)
	if !reflect.DeepEqual(fastest.Run.Records, dl.Run.Records) {
		for j := range fastest.Run.Records {
			if !reflect.DeepEqual(fastest.Run.Records[j], dl.Run.Records[j]) {
				t.Fatalf("step %d diverged:\n  fastest-w %+v\n  deadline  %+v",
					j, fastest.Run.Records[j], dl.Run.Records[j])
			}
		}
		t.Fatal("records diverged")
	}
	if !reflect.DeepEqual(fastest.Params, dl.Params) {
		t.Fatal("deadline gather: final parameters diverged from the fastest-w run")
	}
}

// TestDeadlineAdmitsArrivalsByTheDeadline pins the deadline policy's
// admission to the deadline itself, not to when the loop gets to a frame.
// From step 1 on, worker 0 uploads at once, worker 1 20ms past the deadline
// and the rest much later, while the previous step's loss takes longer
// than all of that: worker 1's frame waits in the queue until the loss is
// paid, and must not be gathered then.
func TestDeadlineAdmitsArrivalsByTheDeadline(t *testing.T) {
	const deadline, lossTime = 50 * time.Millisecond, 100 * time.Millisecond
	res, _ := runShapedCluster(t, func(c *MasterConfig) {
		c.Model = slowLoss{c.Model, lossTime}
		c.Deadline = deadline
		c.MaxSteps = 5
	}, func(i int, c *WorkerConfig) {
		switch i {
		case 0:
		case 1:
			c.Delay = &slowAfterFirst{d: deadline + 20*time.Millisecond}
		default:
			c.Delay = &slowAfterFirst{d: 4 * lossTime}
		}
	})
	for _, rec := range res.Run.Records[1:] {
		if rec.Available != 1 {
			t.Errorf("step %d gathered %d workers, want worker 0 alone: a frame that missed the %v deadline was admitted",
				rec.Step, rec.Available, deadline)
		}
	}
}

// TestPipelinedCrashMidOverlap is the -race satellite: a worker dies right
// in the overlap zone — after serving step t's gather but around step
// t+1's broadcast, while step t's finalize is still owed. The master must
// evict it and finish on the survivors.
func TestPipelinedCrashMidOverlap(t *testing.T) {
	res, _ := runShapedCluster(t,
		func(c *MasterConfig) {
			c.MaxSteps = 15
			c.LivenessTimeout = time.Second
		},
		func(i int, c *WorkerConfig) {
			// A few ms per step, so the run outlasts the scheduling noise
			// between the crash and the master noticing the closed socket.
			c.Delay = straggler.Constant{D: 3 * time.Millisecond}
			if i == 3 {
				// Crash exactly at the overlap boundary: the fault fires
				// when the worker starts step 6, i.e. after its step-5
				// upload, as the pipelined broadcast races the gather tail.
				c.Fault = straggler.CrashAt{Step: 6}
				c.FaultSeed = 3
			}
		})
	if res.Run.Steps() != 15 {
		t.Fatalf("steps = %d, want 15", res.Run.Steps())
	}
	last := res.Run.Records[len(res.Run.Records)-1]
	if last.Alive != 3 {
		t.Fatalf("final alive = %d, want 3 after the crash", last.Alive)
	}
	first, final := res.Run.Records[0].Loss, res.Run.FinalLoss()
	if !(final < first) {
		t.Fatalf("loss %v → %v, expected decrease despite the crash", first, final)
	}
}
