package cluster

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/gc"
	"isgc/internal/isgc"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
)

// launchCluster starts a master plus its full worker fleet and returns the
// training result. delays[i] (may be nil) is worker i's injected straggler
// model.
func launchCluster(t *testing.T, st engine.Strategy, data *dataset.Dataset, mdl model.Model,
	w, maxSteps int, lossThreshold float64, delays []straggler.Model) *engine.Result {
	t.Helper()
	n := st.N()

	master, err := NewMaster(MasterConfig{
		Addr:          "127.0.0.1:0",
		Strategy:      st,
		Model:         mdl,
		Data:          data,
		LearningRate:  0.3,
		W:             w,
		MaxSteps:      maxSteps,
		LossThreshold: lossThreshold,
		Seed:          42,
		AcceptTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	parts, err := data.Partition(n)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wlog := events.New(events.Config{})
	workerErrs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pids := st.Partitions(i)
			loaders := make([]*dataset.Loader, len(pids))
			for j, d := range pids {
				var err error
				// Same seed discipline as the engine: seed depends only
				// on the partition, so replicas agree.
				loaders[j], err = dataset.NewLoader(parts[d], 16, 42+int64(d)*7919)
				if err != nil {
					workerErrs <- err
					return
				}
			}
			var delay straggler.Model
			if delays != nil {
				delay = delays[i]
			}
			wk, err := NewWorker(WorkerConfig{
				Addr:       master.Addr(),
				ID:         i,
				Partitions: pids,
				Loaders:    loaders,
				Model:      mdl,
				Encode:     SumEncoder(),
				Delay:      delay,
				DelaySeed:  int64(i) + 1,
				Events:     wlog,
			})
			if err != nil {
				workerErrs <- err
				return
			}
			if _, err := wk.Run(); err != nil {
				workerErrs <- err
			}
		}()
	}

	res, err := master.Run()
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	wg.Wait()
	if st.WaitFor(w) == n {
		checkWaitAllAbandons(t, res, wlog)
	}
	close(workerErrs)
	for err := range workerErrs {
		t.Fatalf("worker: %v", err)
	}
	return res
}

// checkWaitAllAbandons holds a wait-all run to the abandonments it may have.
// A wait-all master broadcasts step t+1 only after every worker's step-t
// upload, so no step is ever superseded — with one exception: a run that
// converges on the loss threshold learns so from step t's deferred loss,
// after step t+1's broadcast, and leaves the fleet that one trailing step,
// which MsgStop makes each worker abandon unless its upload was already out.
// wlog is the event log the whole fleet wrote to.
func checkWaitAllAbandons(t *testing.T, res *engine.Result, wlog *events.Log) {
	t.Helper()
	recs := res.Run.Records
	trailing := recs[len(recs)-1].Step + 1
	seen := map[int]bool{}
	for _, ev := range wlog.Snapshot() {
		if ev.Type != "worker.step_abandoned" {
			continue
		}
		switch {
		case !res.Converged:
			t.Errorf("wait-all run abandoned step %d on worker %d, want no abandonment", ev.Step, ev.Worker)
		case ev.Step != trailing:
			t.Errorf("worker %d abandoned step %d, only the trailing step %d may be", ev.Worker, ev.Step, trailing)
		case seen[ev.Worker]:
			t.Errorf("worker %d abandoned the trailing step %d twice", ev.Worker, trailing)
		}
		seen[ev.Worker] = true
	}
}

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, err := dataset.SyntheticClusters(240, 6, 3, 4.0, 101)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTCPTrainingISGCFullFleet(t *testing.T) {
	p, err := placement.CR(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := engine.NewISGC(isgc.New(p, 7))
	if err != nil {
		t.Fatal(err)
	}
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	res := launchCluster(t, st, testData(t), mdl, 4, 40, 0, nil)
	if res.Run.Steps() != 40 {
		t.Fatalf("steps = %d", res.Run.Steps())
	}
	first, last := res.Run.Records[0].Loss, res.Run.FinalLoss()
	if !(last < 0.7*first) {
		t.Fatalf("loss %v → %v over TCP, expected decrease", first, last)
	}
	// With all 4 workers, IS-GC over CR(4,2) recovers fully.
	for _, rec := range res.Run.Records {
		if rec.RecoveredFraction != 1.0 {
			t.Fatalf("step %d recovered %v", rec.Step, rec.RecoveredFraction)
		}
	}
}

func TestTCPTrainingWithRealStragglers(t *testing.T) {
	p, err := placement.CR(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := engine.NewISGC(isgc.New(p, 8))
	if err != nil {
		t.Fatal(err)
	}
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	// Workers 0 and 1 are consistently slow: real sleeps over real sockets.
	delays := []straggler.Model{
		straggler.Constant{D: 80 * time.Millisecond},
		straggler.Constant{D: 80 * time.Millisecond},
		nil, nil,
	}
	res := launchCluster(t, st, testData(t), mdl, 2, 12, 0, delays)
	for _, rec := range res.Run.Records {
		if rec.Available != 2 {
			t.Fatalf("step %d waited for %d workers, want 2", rec.Step, rec.Available)
		}
	}
	// The fast pair {2, 3} is adjacent in CR(4,2) wait — workers 2,3 are
	// 0-indexed consecutive, so they conflict and recovery is 0.5 per
	// step; crucially the master never waits for the slow workers, so the
	// mean step time must sit well below the 80ms injected delay.
	if mean := res.Run.MeanStepTime(); mean > 60*time.Millisecond {
		t.Fatalf("mean step time %v; master must ignore the 80ms stragglers", mean)
	}
	if got := res.Run.MeanRecovered(); got != 0.5 {
		t.Fatalf("mean recovered %v, want 0.5 (fast workers conflict)", got)
	}
}

// The master's per-worker arrival counts expose enduring stragglers.
func TestMasterArrivalCounts(t *testing.T) {
	p, err := placement.CR(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := engine.NewISGC(isgc.New(p, 14))
	if err != nil {
		t.Fatal(err)
	}
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	delays := []straggler.Model{
		straggler.Constant{D: 100 * time.Millisecond}, // enduring straggler
		nil, nil, nil,
	}

	// launchCluster hides the master handle, so assemble inline.
	data := testData(t)
	master, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
		LearningRate: 0.3, W: 3, MaxSteps: 10, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
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
			wk, err := NewWorker(WorkerConfig{
				Addr: master.Addr(), ID: i, Partitions: pids, Loaders: loaders,
				Model: mdl, Encode: SumEncoder(), Delay: delays[i], DelaySeed: int64(i),
			})
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = wk.Run()
		}()
	}
	if _, err := master.Run(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	counts := master.Health().Workers
	if len(counts) != 4 {
		t.Fatalf("counts = %v", counts)
	}
	if counts[0].AcceptedSteps != 0 {
		t.Fatalf("enduring straggler arrived %d times; w=3 gathers should always beat it", counts[0].AcceptedSteps)
	}
	for i := 1; i < 4; i++ {
		if counts[i].AcceptedSteps != 10 {
			t.Fatalf("worker %d arrived %d/10 times", i, counts[i].AcceptedSteps)
		}
	}
}

func TestTCPLossThresholdStopsEarly(t *testing.T) {
	st, err := engine.NewSyncSGD(4)
	if err != nil {
		t.Fatal(err)
	}
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	res := launchCluster(t, st, testData(t), mdl, 4, 500, 0.4, nil)
	if !res.Converged {
		t.Fatal("expected convergence")
	}
	if res.Run.FinalLoss() > 0.4 {
		t.Fatalf("final loss %v", res.Run.FinalLoss())
	}
	if res.Run.Steps() >= 500 {
		t.Fatal("did not stop early")
	}
}

// TestTCPLossThresholdMatchesEngine: a wait-all run that converges on the
// loss threshold stops where engine.Train with the same threshold stops,
// with every loss and the final parameters bit-equal. The master learns of
// step t's convergence inside step t+1's gather, so this pins that nothing
// of step t+1 is decoded or applied.
func TestTCPLossThresholdMatchesEngine(t *testing.T) {
	const maxSteps, threshold = 500, 0.4
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	data := testData(t)
	stTCP, err := engine.NewSyncSGD(4)
	if err != nil {
		t.Fatal(err)
	}
	resTCP := launchCluster(t, stTCP, data, mdl, 4, maxSteps, threshold, nil)
	stEng, err := engine.NewSyncSGD(4)
	if err != nil {
		t.Fatal(err)
	}
	resEng, err := engine.Train(engine.Config{
		Strategy: stEng, Model: mdl, Data: data, BatchSize: 16, LearningRate: 0.3,
		W: 4, MaxSteps: maxSteps, LossThreshold: threshold, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resTCP.Converged || !resEng.Converged {
		t.Fatalf("converged: TCP %v, engine %v; want both", resTCP.Converged, resEng.Converged)
	}
	if len(resTCP.Run.Records) != len(resEng.Run.Records) {
		t.Fatalf("TCP stopped after %d steps, engine after %d", len(resTCP.Run.Records), len(resEng.Run.Records))
	}
	for s, rec := range resTCP.Run.Records {
		if want := resEng.Run.Records[s].Loss; math.Float64bits(rec.Loss) != math.Float64bits(want) {
			t.Errorf("step %d: TCP loss %v ≠ engine %v", rec.Step, rec.Loss, want)
		}
	}
	for j := range resTCP.Params {
		if math.Float64bits(resTCP.Params[j]) != math.Float64bits(resEng.Params[j]) {
			t.Fatalf("param %d: TCP %v ≠ engine %v — a step past convergence was applied", j, resTCP.Params[j], resEng.Params[j])
		}
	}
}

// TestTCPMatchesInProcessEngine: a wait-all run over real sockets is the
// in-process engine's run bit for bit — every step's loss and the final
// params. The FR(4,2) input has each worker compute two partitions
// concurrently; the IS-SGD(4) input has each worker compute one partition's
// batch gradient. Neither may depend on how many cores the master or the
// workers have (go test -cpu 1,2,4).
func TestTCPMatchesInProcessEngine(t *testing.T) {
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	data := testData(t)
	for _, tc := range []struct {
		name  string
		build func() (engine.Strategy, error)
	}{
		{"IS-GC-FR(4,2)", func() (engine.Strategy, error) {
			p, err := placement.FR(4, 2)
			if err != nil {
				return nil, err
			}
			return engine.NewISGC(isgc.New(p, 3))
		}},
		{"IS-SGD(4)", func() (engine.Strategy, error) { return engine.NewISSGD(4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stTCP, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			resTCP := launchCluster(t, stTCP, data, mdl, 4, 25, 0, nil)
			stEng, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			resEng, err := engine.Train(engine.Config{
				Strategy:     stEng,
				Model:        mdl,
				Data:         data,
				BatchSize:    16,
				LearningRate: 0.3,
				W:            4,
				MaxSteps:     25,
				Seed:         42,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(resTCP.Run.Records) != len(resEng.Run.Records) {
				t.Fatalf("TCP ran %d steps, engine %d", len(resTCP.Run.Records), len(resEng.Run.Records))
			}
			for s, rec := range resTCP.Run.Records {
				if want := resEng.Run.Records[s].Loss; math.Float64bits(rec.Loss) != math.Float64bits(want) {
					t.Errorf("step %d: TCP loss %v ≠ engine %v", rec.Step, rec.Loss, want)
				}
			}
			for j := range resTCP.Params {
				if math.Float64bits(resTCP.Params[j]) != math.Float64bits(resEng.Params[j]) {
					t.Fatalf("param %d: TCP %v ≠ engine %v", j, resTCP.Params[j], resEng.Params[j])
				}
			}
		})
	}
}

// Classic gradient coding over real sockets: workers encode with their
// fixed B-matrix coefficients (LinearEncoder) and the master decodes the
// exact full gradient from the n-c+1 fastest — the baseline protocol the
// paper compares IS-GC against, running end to end on TCP.
func TestTCPClassicGC(t *testing.T) {
	code, err := gc.NewCR(4, 2, 21)
	if err != nil {
		t.Fatal(err)
	}
	st, err := engine.NewClassicGC(code)
	if err != nil {
		t.Fatal(err)
	}
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	data := testData(t)
	master, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
		LearningRate: 0.3, W: 1 /* ignored: GC waits for n-c+1 */, MaxSteps: 10, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
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
			// Worker i's fixed coefficients over its own partitions.
			coeffs := make([]float64, len(pids))
			for j, d := range pids {
				coeffs[j] = code.B().At(i, d)
			}
			var delay straggler.Model
			if i == 3 {
				delay = straggler.Constant{D: 60 * time.Millisecond} // the one tolerable straggler
			}
			wk, err := NewWorker(WorkerConfig{
				Addr: master.Addr(), ID: i, Partitions: pids, Loaders: loaders,
				Model: mdl, Encode: LinearEncoder(coeffs), Delay: delay, DelaySeed: int64(i),
			})
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = wk.Run()
		}()
	}
	res, err := master.Run()
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	wg.Wait()
	for _, rec := range res.Run.Records {
		if rec.Available != 3 {
			t.Fatalf("step %d gathered %d workers, want n-c+1 = 3", rec.Step, rec.Available)
		}
		if rec.RecoveredFraction != 1.0 {
			t.Fatalf("step %d recovered %v, classic GC must fully recover", rec.Step, rec.RecoveredFraction)
		}
	}
	first, last := res.Run.Records[0].Loss, res.Run.FinalLoss()
	if !(last < first) {
		t.Fatalf("loss %v → %v, expected decrease", first, last)
	}
}

// Deadline gather over real sockets: the master accepts whatever arrives
// within the deadline, so persistent stragglers never block a step.
func TestTCPDeadlineGather(t *testing.T) {
	p, err := placement.CR(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := engine.NewISGC(isgc.New(p, 12))
	if err != nil {
		t.Fatal(err)
	}
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	data := testData(t)
	master, err := NewMaster(MasterConfig{
		Addr:         "127.0.0.1:0",
		Strategy:     st,
		Model:        mdl,
		Data:         data,
		LearningRate: 0.3,
		Deadline:     120 * time.Millisecond,
		MaxSteps:     8,
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
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
			var delay straggler.Model
			if i >= 2 {
				delay = straggler.Constant{D: 400 * time.Millisecond} // misses every deadline
			}
			wk, err := NewWorker(WorkerConfig{
				Addr: master.Addr(), ID: i, Partitions: pids, Loaders: loaders,
				Model: mdl, Encode: SumEncoder(), Delay: delay, DelaySeed: int64(i),
			})
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = wk.Run()
		}()
	}
	res, err := master.Run()
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	wg.Wait()
	for _, rec := range res.Run.Records {
		// Only the two on-time workers (0, 1) make the deadline; they are
		// adjacent in CR(4,2), so the decoder picks one (recovery 0.5).
		if rec.Available != 2 {
			t.Fatalf("step %d: available %d, want 2", rec.Step, rec.Available)
		}
		if rec.RecoveredFraction != 0.5 {
			t.Fatalf("step %d: recovered %v, want 0.5", rec.Step, rec.RecoveredFraction)
		}
		if rec.Elapsed > 350*time.Millisecond {
			t.Fatalf("step %d took %v; the 400ms stragglers must not block it", rec.Step, rec.Elapsed)
		}
	}
}

func TestMasterConfigValidation(t *testing.T) {
	st, err := engine.NewSyncSGD(2)
	if err != nil {
		t.Fatal(err)
	}
	mdl := model.LinearRegression{Features: 2}
	data, _, err := dataset.SyntheticLinear(10, 2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := MasterConfig{Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
		LearningRate: 0.1, MaxSteps: 1}
	muts := []func(*MasterConfig){
		func(c *MasterConfig) { c.Strategy = nil },
		func(c *MasterConfig) { c.Model = nil },
		func(c *MasterConfig) { c.Data = nil },
		func(c *MasterConfig) { c.LearningRate = 0 },
		func(c *MasterConfig) { c.MaxSteps = 0 },
	}
	for i, mut := range muts {
		bad := good
		mut(&bad)
		if _, err := NewMaster(bad); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
	m, err := NewMaster(good)
	if err != nil {
		t.Fatal(err)
	}
	if m.Addr() == "" {
		t.Error("Addr must report the bound address")
	}
	m.ln.Close()
}

func TestWorkerConfigValidation(t *testing.T) {
	data, _, err := dataset.SyntheticLinear(10, 2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := dataset.NewLoader(data, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	mdl := model.LinearRegression{Features: 2}
	good := WorkerConfig{Addr: "127.0.0.1:1", ID: 0, Partitions: []int{0},
		Loaders: []*dataset.Loader{loader}, Model: mdl, Encode: SumEncoder(),
		DialTimeout: 50 * time.Millisecond}
	muts := []func(*WorkerConfig){
		func(c *WorkerConfig) { c.ID = -1 },
		func(c *WorkerConfig) { c.Partitions = nil },
		func(c *WorkerConfig) { c.Loaders = nil },
		func(c *WorkerConfig) { c.Model = nil },
		func(c *WorkerConfig) { c.Encode = nil },
	}
	for i, mut := range muts {
		bad := good
		mut(&bad)
		if _, err := NewWorker(bad); err == nil {
			t.Errorf("mutation %d: expected error", i)
		}
	}
	// Valid config but nobody listening: dial must time out with an error.
	if _, err := NewWorker(good); err == nil {
		t.Error("expected dial error with no master")
	}
}

// TestDataModelMismatchIsAConfigError: a dataset that disagrees with the
// model (a label outside [0, Classes), a NaN label, samples longer or
// shorter than Features) is refused by NewMaster and NewWorker before
// either touches the network, instead of panicking a compute goroutine at
// step 1.
func TestDataModelMismatchIsAConfigError(t *testing.T) {
	build := func(dim int, y float64) *dataset.Dataset {
		samples := make([]dataset.Sample, 8)
		for i := range samples {
			samples[i] = dataset.Sample{X: make([]float64, dim), Y: float64(i % 3)}
		}
		samples[7].Y = y
		d, err := dataset.New(samples)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	st, err := engine.NewSyncSGD(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, mdl := range []model.Model{
		model.SoftmaxRegression{Features: 6, Classes: 3},
		model.MLP{Features: 6, Hidden: 4, Classes: 3},
	} {
		for name, data := range map[string]*dataset.Dataset{
			"label = Classes": build(6, 3),
			"negative label":  build(6, -1),
			"NaN label":       build(6, math.NaN()),
			"long samples":    build(7, 0),
			"short samples":   build(5, 0),
		} {
			_, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
				LearningRate: 0.1, MaxSteps: 1})
			if err == nil || !strings.Contains(err.Error(), "cluster: model:") {
				t.Errorf("NewMaster %v, %s: err = %v, want a model/data config error", mdl, name, err)
			}
			// The worker checks its own partitions only: the offending
			// sample sits in partition 1.
			parts, err := data.Partition(2)
			if err != nil {
				t.Fatal(err)
			}
			for d, wantErr := range []bool{data.Dim() != 6, true} {
				loader, err := dataset.NewLoader(parts[d], 4, 1)
				if err != nil {
					t.Fatal(err)
				}
				_, err = NewWorker(WorkerConfig{Addr: "127.0.0.1:1", ID: d, Partitions: []int{d},
					Loaders: []*dataset.Loader{loader}, Model: mdl, Encode: SumEncoder(),
					DialTimeout: 20 * time.Millisecond})
				if got := err != nil && strings.Contains(err.Error(), "model:"); got != wantErr {
					t.Errorf("NewWorker %v, %s, partition %d: err = %v, want config error %v", mdl, name, d, err, wantErr)
				}
			}
		}
	}
}

func TestSumEncoder(t *testing.T) {
	enc := SumEncoder()
	out, err := enc([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 4 || out[1] != 6 {
		t.Fatalf("out = %v", out)
	}
	if _, err := enc(nil); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := enc([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("expected error for dim mismatch")
	}
}

func TestLinearEncoder(t *testing.T) {
	enc := LinearEncoder([]float64{2, -1})
	out, err := enc([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != -1 || out[1] != 0 {
		t.Fatalf("out = %v", out)
	}
	if _, err := enc([][]float64{{1, 2}}); err == nil {
		t.Error("expected error for count mismatch")
	}
	if _, err := enc([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("expected error for dim mismatch")
	}
	// The encoder must have copied the coefficient slice.
	coeffs := []float64{1, 1}
	enc2 := LinearEncoder(coeffs)
	coeffs[0] = 99
	out2, err := enc2([][]float64{{1}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if out2[0] != 2 {
		t.Fatal("LinearEncoder must copy coefficients")
	}
}
