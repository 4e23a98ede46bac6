package cluster

import (
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"isgc/internal/bitset"
	"isgc/internal/checkpoint"
	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/isgc"
	"isgc/internal/metrics"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
	"isgc/internal/trace"
)

// freshISGC builds a new IS-GC strategy instance (its own decoder RNG) so
// each master life starts from a clean object, exactly like a restarted
// process.
func freshISGC(t *testing.T, n, c int, seed int64) engine.Strategy {
	t.Helper()
	p, err := placement.CR(n, c)
	if err != nil {
		t.Fatal(err)
	}
	st, err := engine.NewISGC(isgc.New(p, seed))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// startFleet launches the full worker fleet against addr and returns its
// WaitGroup. With a positive reconnect budget the fleet survives master
// restarts — the failover path the durable tests exercise. The workers
// shape names lose every upload, so the master's W' leaves them out on every
// step. Every caller's master waits for all the other workers, so those must
// never abandon a step: a master life that ends mid-step interrupts it (the
// successor re-delivers), which is not an abandonment.
func startFleet(t *testing.T, st engine.Strategy, data *dataset.Dataset, mdl model.Model,
	addr string, reconnect time.Duration, delay straggler.Model, shape fleetShape) *sync.WaitGroup {
	t.Helper()
	n := st.N()
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
			cfg := WorkerConfig{
				Addr: addr, ID: i, Partitions: pids, Loaders: loaders,
				Model: mdl, Encode: SumEncoder(), Delay: delay, DelaySeed: int64(i) + 1,
				ReconnectTimeout: reconnect,
			}
			if slices.Contains(shape.stalled, i) {
				cfg.Delay = fixedDelay{time.Hour}
			}
			if slices.Contains(shape.dropped, i) {
				cfg.Fault, cfg.FaultSeed = straggler.DropWithProb{P: 1}, int64(i)+1
			}
			wk, err := NewWorker(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := wk.Run(); err != nil {
				t.Error(err)
			}
			if got := wk.Health().Abandoned; got != 0 && !shape.misbehaves(i) {
				t.Errorf("worker %d abandoned %d steps under a wait-all master, want 0", i, got)
			}
		}()
	}
	return &wg
}

// fleetShape names the workers of a startFleet fleet whose uploads never
// count: stalled ones delay every upload by an hour, so none lands within a
// run; dropped ones draw straggler.DropWithProb{P: 1} and never send.
type fleetShape struct{ stalled, dropped []int }

func (s fleetShape) misbehaves(i int) bool {
	return slices.Contains(s.stalled, i) || slices.Contains(s.dropped, i)
}

// fixedDelay pins every upload behind a constant pause, giving the
// durable-run tests a hard lower bound on step duration: a Stop or a
// standby observation window then provably lands mid-run instead of racing
// a microsecond-per-step fleet to the finish line. Delays only stretch
// wall clock — the deterministic record fields are unaffected.
type fixedDelay struct{ d time.Duration }

func (f fixedDelay) Sample(*rand.Rand) time.Duration { return f.d }
func (f fixedDelay) String() string                  { return "fixed(" + f.d.String() + ")" }

// freeLoopbackAddr grabs a free port and releases it, so a master can be
// started on a known address a fleet can follow across restarts.
func freeLoopbackAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// waitForStep polls the master's health snapshot until the broadcast step
// reaches target.
func waitForStep(t *testing.T, m *Master, target int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		h := m.Health()
		if h.Running && h.Step >= target {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("master never reached step %d (at %d)", target, h.Step)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// zeroElapsed strips the wall-clock field records legitimately disagree on
// between runs, leaving only the deterministic content.
func zeroElapsed(recs []trace.StepRecord) []trace.StepRecord {
	out := append([]trace.StepRecord(nil), recs...)
	for i := range out {
		out[i].Elapsed = 0
	}
	return out
}

// TestClusterCheckpointRestoreEquivalence is the tentpole acceptance check
// at the cluster layer: a master stopped mid-run and restarted with Restore
// on the same address — against the same still-running fleet — produces
// step records and final params bit-identical to an uninterrupted run from
// the checkpoint boundary on.
//
// It runs on three inputs. W = 4 gathers the whole CR(4,2) fleet. W = 2 with
// workers 2 and 3 stalled makes W' = {0, 1} on every step:
// its maximum independent sets {0} and {1} recover different partitions,
// so a successor that does not continue the decoder RNG from the
// checkpoint's position writes different records. The full gather cannot
// show that: its two choices, {0, 2} and {1, 3}, recover every partition,
// and here their sums happen to agree in every bit. W = 2 with workers 2
// and 3 dropping every upload is the same W' reached through the fault
// model: the successor re-delivers the step in flight at the stop, and a
// worker that serves that re-delivery without its drawn drop lands in W'.
func TestClusterCheckpointRestoreEquivalence(t *testing.T) {
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	data := testData(t)
	for _, tc := range []struct {
		name  string
		w     int
		shape fleetShape
	}{
		{name: "W=4", w: 4},
		{name: "W=2,workers-2-3-stalled", w: 2, shape: fleetShape{stalled: []int{2, 3}}},
		{name: "W=2,workers-2-3-drop", w: 2, shape: fleetShape{dropped: []int{2, 3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := func(st engine.Strategy, addr string) MasterConfig {
				return MasterConfig{
					Addr: addr, Strategy: st, Model: mdl, Data: data,
					LearningRate: 0.3, W: tc.w, MaxSteps: 20, Seed: 42,
					// Sequential loss eval: the sharded sum is pool-size dependent
					// in its float bits, and this test compares bits.
					ComputePar: 1,
				}
			}

			// Uninterrupted reference run.
			refMaster, err := NewMaster(base(freshISGC(t, 4, 2, 7), "127.0.0.1:0"))
			if err != nil {
				t.Fatal(err)
			}
			refFleet := startFleet(t, refMaster.cfg.Strategy, data, mdl, refMaster.Addr(), 0, nil, tc.shape)
			ref, err := refMaster.Run()
			if err != nil {
				t.Fatal(err)
			}
			refFleet.Wait()

			// First life: fixed port, checkpoints on, stopped after step 8.
			addr := freeLoopbackAddr(t)
			dir := t.TempDir()
			store1, err := checkpoint.NewStore(dir, checkpoint.DefaultRetain)
			if err != nil {
				t.Fatal(err)
			}
			cfg1 := base(freshISGC(t, 4, 2, 7), addr)
			cfg1.Checkpoint = store1
			cfg1.CheckpointEvery = 5
			cfg1.LeaseTTL = time.Second
			m1, err := NewMaster(cfg1)
			if err != nil {
				t.Fatal(err)
			}
			fleet := startFleet(t, cfg1.Strategy, data, mdl, addr, 30*time.Second, fixedDelay{8 * time.Millisecond}, tc.shape)
			res1Ch := make(chan *engine.Result, 1)
			go func() {
				res, err := m1.Run()
				if err != nil {
					t.Error(err)
				}
				res1Ch <- res
			}()
			waitForStep(t, m1, 8)
			m1.Stop()
			res1 := <-res1Ch
			if res1 == nil || !res1.Interrupted {
				t.Fatalf("first life did not report an interrupted run: %+v", res1)
			}
			if res1.Run.Steps() == 0 || res1.Run.Steps() >= 20 {
				t.Fatalf("first life recorded %d steps; the stop must land mid-run", res1.Run.Steps())
			}

			// Second life: a fresh master restores on the same address; the fleet's
			// reconnect loops find it and the run completes.
			store2, err := checkpoint.NewStore(dir, checkpoint.DefaultRetain)
			if err != nil {
				t.Fatal(err)
			}
			cfg2 := base(freshISGC(t, 4, 2, 7), addr)
			cfg2.Checkpoint = store2
			cfg2.CheckpointEvery = 5
			cfg2.Restore = true
			m2, err := NewMaster(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			res2, err := m2.Run()
			if err != nil {
				t.Fatal(err)
			}
			fleet.Wait()

			if gen := m2.Health().Generation; gen != 1 {
				t.Fatalf("restored master generation = %d, want 1", gen)
			}
			combined := append(zeroElapsed(res1.Run.Records), zeroElapsed(res2.Run.Records)...)
			refRecs := zeroElapsed(ref.Run.Records)
			if len(combined) != len(refRecs) {
				t.Fatalf("two lives recorded %d steps, reference %d", len(combined), len(refRecs))
			}
			for i := range combined {
				if !reflect.DeepEqual(combined[i], refRecs[i]) {
					t.Fatalf("record %d diverged across the restart:\n lives %+v\n   ref %+v", i, combined[i], refRecs[i])
				}
			}
			if !reflect.DeepEqual(res2.Params, ref.Params) {
				t.Fatal("final params are not bit-identical after kill/restore")
			}
		})
	}
}

// TestWorkerStopPersistsAndResumes covers the worker half of durability: a
// gracefully stopped worker persists its RNG positions and step counter,
// and a restarted worker restores them and rejoins the same run.
func TestWorkerStopPersistsAndResumes(t *testing.T) {
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	data := testData(t)
	st := freshISGC(t, 4, 2, 9)
	master, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
		LearningRate: 0.3, W: 4, MaxSteps: 60, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	mkLoaders := func(pids []int) []*dataset.Loader {
		loaders := make([]*dataset.Loader, len(pids))
		for j, d := range pids {
			var err error
			loaders[j], err = dataset.NewLoader(parts[d], 16, 42+int64(d)*7919)
			if err != nil {
				t.Fatal(err)
			}
		}
		return loaders
	}
	cfgFor := func(i int) WorkerConfig {
		pids := st.Partitions(i)
		return WorkerConfig{
			Addr: master.Addr(), ID: i, Partitions: pids, Loaders: mkLoaders(pids),
			Model: mdl, Encode: SumEncoder(),
			Delay: straggler.Exponential{Mean: 3 * time.Millisecond}, DelaySeed: int64(i) + 1,
			ReconnectTimeout: 10 * time.Second,
		}
	}

	dir := t.TempDir()
	store, err := checkpoint.NewStore(dir, checkpoint.DefaultRetain)
	if err != nil {
		t.Fatal(err)
	}
	// The master must be running before workers register: the hello ack is
	// served by Run's accept loop, not the listener alone.
	resCh := make(chan *engine.Result, 1)
	go func() {
		res, err := master.Run()
		if err != nil {
			t.Error(err)
		}
		resCh <- res
	}()
	var wg sync.WaitGroup
	workers := make([]*Worker, 4)
	for i := 0; i < 4; i++ {
		cfg := cfgFor(i)
		if i == 2 {
			cfg.Checkpoint = store
		}
		workers[i], err = NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := workers[i].Run(); err != nil {
				t.Error(err)
			}
		}()
	}

	// Let worker 2 serve a few steps, then stop it gracefully.
	deadline := time.Now().Add(30 * time.Second)
	for workers[2].Health().StepsServed < 3 {
		if time.Now().After(deadline) {
			t.Fatal("worker 2 never served 3 steps")
		}
		time.Sleep(2 * time.Millisecond)
	}
	workers[2].Stop()

	var ws checkpoint.WorkerState
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, err := store.Latest(&ws); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stopped worker never persisted its state")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if ws.ID != 2 || ws.Steps < 3 {
		t.Fatalf("worker state = %+v, want ID 2 with ≥3 steps", ws)
	}
	if ws.DelayDraws == 0 {
		t.Fatalf("worker state did not capture the delay RNG position: %+v", ws)
	}

	// Restart worker 2 from the checkpoint: it must resume its counters and
	// rejoin the still-running master.
	store2, err := checkpoint.NewStore(dir, checkpoint.DefaultRetain)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfgFor(2)
	cfg2.Checkpoint = store2
	cfg2.Restore = true
	w2b, err := NewWorker(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := w2b.Health().StepsServed; got != ws.Steps {
		t.Fatalf("restored worker starts at %d steps, checkpoint says %d", got, ws.Steps)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := w2b.Run(); err != nil {
			t.Error(err)
		}
	}()

	res := <-resCh
	wg.Wait()
	if res == nil || res.Run.Steps() != 60 {
		t.Fatalf("master did not finish the run: %+v", res)
	}
	if got := w2b.Health().StepsServed; got <= ws.Steps {
		t.Fatalf("restored worker served no further steps (%d)", got)
	}
}

// stopAtRecover calls stop from inside the at-th Recover, so the stop lands
// at an exact, scheduler-independent point: while that step decodes.
type stopAtRecover struct {
	engine.Strategy
	engine.RandStateful
	at, calls int
	stop      func()
}

func (s *stopAtRecover) Recover(avail *bitset.Set, coded [][]float64) ([]float64, []int, error) {
	if s.calls == s.at {
		s.stop()
	}
	s.calls++
	return s.Strategy.Recover(avail, coded)
}

// TestStopAtCheckpointBoundaryWritesOnce: a Stop that takes effect at a
// boundary the periodic checkpoint just covered must not write that
// snapshot a second time — even though the boundary's write is still in
// flight behind the loop when the Stop looks. Counted, not timed: Stop fires
// from step 3's Recover with a checkpoint every step, so the next loop turn
// pays step 3's finalize, starts snapshot 4's write and is interrupted right
// behind it. The first life leaves exactly files 1..4, one write each, and
// reports 4 as durable; the second resumes at step 4 and the two lives
// together are bit-identical to an uninterrupted run. No writer goroutine
// outlives Run.
func TestStopAtCheckpointBoundaryWritesOnce(t *testing.T) {
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	data := testData(t)
	baseline := runtime.NumGoroutine()
	config := func(addr string, st engine.Strategy) MasterConfig {
		return MasterConfig{
			Addr: addr, Strategy: st, Model: mdl, Data: data,
			LearningRate: 0.3, W: 4, MaxSteps: 8, Seed: 42,
			ComputePar: 1, // the lives' losses are compared bit for bit
		}
	}

	refMaster, err := NewMaster(config("127.0.0.1:0", freshISGC(t, 4, 2, 7)))
	if err != nil {
		t.Fatal(err)
	}
	refFleet := startFleet(t, refMaster.cfg.Strategy, data, mdl, refMaster.Addr(), 0, nil, fleetShape{})
	ref, err := refMaster.Run()
	if err != nil {
		t.Fatal(err)
	}
	refFleet.Wait()

	addr := freeLoopbackAddr(t)
	dir := t.TempDir()
	life := func(restore bool) (*Master, *MasterMetrics, *stopAtRecover) {
		store, err := checkpoint.NewStore(dir, 10)
		if err != nil {
			t.Fatal(err)
		}
		inner := freshISGC(t, 4, 2, 7)
		st := &stopAtRecover{Strategy: inner, RandStateful: inner.(engine.RandStateful), at: -1}
		mm := NewMasterMetrics(metrics.NewRegistry())
		cfg := config(addr, st)
		cfg.Checkpoint, cfg.CheckpointEvery, cfg.Restore, cfg.Metrics = store, 1, restore, mm
		m, err := NewMaster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m, mm, st
	}

	m1, mm1, st1 := life(false)
	st1.at, st1.stop = 3, m1.Stop
	fleet := startFleet(t, st1, data, mdl, addr, 30*time.Second, nil, fleetShape{})
	res1, err := m1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Interrupted || res1.Run.Steps() != 4 {
		t.Fatalf("first life interrupted=%v after %d steps, want true after 4", res1.Interrupted, res1.Run.Steps())
	}
	if got := mm1.CheckpointWrites.Value(); got != 4 {
		t.Errorf("%d checkpoint writes for snapshots 1..4, want 4", got)
	}
	if got := m1.Health().LastCheckpointStep; got != 4 {
		t.Errorf("last checkpoint step %d, want 4", got)
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range files {
		files[i] = filepath.Base(files[i])
	}
	if want := []string{"ckpt-00000001.json", "ckpt-00000002.json", "ckpt-00000003.json", "ckpt-00000004.json"}; !reflect.DeepEqual(files, want) {
		t.Errorf("first life left %v, want one file per boundary %v", files, want)
	}

	m2, _, _ := life(true)
	res2, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	fleet.Wait()
	if res2.Run.Steps() != 4 || res2.Run.Records[0].Step != 4 {
		t.Fatalf("second life ran %d steps from step %d, want 4 from step 4",
			res2.Run.Steps(), res2.Run.Records[0].Step)
	}
	lives := append(zeroElapsed(res1.Run.Records), zeroElapsed(res2.Run.Records)...)
	if !reflect.DeepEqual(lives, zeroElapsed(ref.Run.Records)) {
		t.Errorf("records diverged across the stop:\n lives %+v\n   ref %+v", lives, zeroElapsed(ref.Run.Records))
	}
	if !reflect.DeepEqual(res2.Params, ref.Params) {
		t.Error("final params are not bit-identical after stop/restore")
	}
	goroutinesSettleTo(t, baseline)
}

// TestUnwritableCheckpointDirDoesNotStallRun: when every save fails — the
// store's directory vanished under it — each attempt is counted and logged
// at error level, nothing is reported durable, and the run neither stalls on
// the writer nor ends early.
func TestUnwritableCheckpointDirDoesNotStallRun(t *testing.T) {
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	data := testData(t)
	dir := filepath.Join(t.TempDir(), "gone")
	store, err := checkpoint.NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	mm := NewMasterMetrics(metrics.NewRegistry())
	log := events.New(events.Config{MinLevel: events.LevelError})
	st := freshISGC(t, 4, 2, 7)
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
		LearningRate: 0.3, W: 4, MaxSteps: 6, Seed: 42,
		Checkpoint: store, CheckpointEvery: 1, Metrics: mm, Events: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	fleet := startFleet(t, st, data, mdl, m.Addr(), 0, nil, fleetShape{})
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	fleet.Wait()
	if res.Interrupted || res.Run.Steps() != 6 {
		t.Fatalf("run ended after %d steps (interrupted=%v), want all 6", res.Run.Steps(), res.Interrupted)
	}
	// Boundaries 1..5 plus the final Completed snapshot.
	if got := mm.CheckpointErrors.Value(); got != 6 {
		t.Errorf("%d checkpoint errors, want 6", got)
	}
	if got := mm.CheckpointWrites.Value(); got != 0 {
		t.Errorf("%d checkpoint writes into a missing directory, want 0", got)
	}
	if got := m.Health().LastCheckpointStep; got != -1 {
		t.Errorf("last checkpoint step %d, want -1 (nothing durable)", got)
	}
	logged := 0
	for _, ev := range log.Snapshot() {
		if ev.Type == "master.checkpoint_error" {
			logged++
		}
	}
	if logged != 6 {
		t.Errorf("%d master.checkpoint_error events, want 6", logged)
	}
}
