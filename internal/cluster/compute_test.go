package cluster

import (
	"math"
	"runtime"
	"testing"
	"time"

	"isgc/internal/bitset"
	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/model"
	"isgc/internal/straggler"
)

// TestComputeBitsIgnoreGOMAXPROCS: the master's full-set loss and a
// one-partition worker's batch gradient have the same bits at GOMAXPROCS 1,
// 2 and 4, and they are the engine's. Both are larger than
// model.SampleBlock here (a 2,400-sample loss set, 600-sample batches), so
// both are split over the compute helpers: an IS-SGD(4) wait-all run's
// every loss and its final params must still equal, bit for bit, an
// engine.Train run at GOMAXPROCS 1.
func TestComputeBitsIgnoreGOMAXPROCS(t *testing.T) {
	const perPartition = 600
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	data, err := dataset.SyntheticClusters(4*perPartition, 6, 3, 4.0, 101)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(1)
	stEng, err := engine.NewISSGD(4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.Train(engine.Config{
		Strategy: stEng, Model: mdl, Data: data, BatchSize: perPartition,
		LearningRate: 0.3, W: 4, MaxSteps: 10, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		st, err := engine.NewISSGD(4)
		if err != nil {
			t.Fatal(err)
		}
		master, err := NewMaster(MasterConfig{
			Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
			LearningRate: 0.3, W: 4, MaxSteps: 10, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		fleet := startFleet(t, st, data, mdl, master.Addr(), 0, nil, fleetShape{batch: perPartition})
		res, err := master.Run()
		fleet.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Run.Records) != len(ref.Run.Records) {
			t.Fatalf("GOMAXPROCS=%d: %d steps, engine %d", procs, len(res.Run.Records), len(ref.Run.Records))
		}
		for s, rec := range res.Run.Records {
			if want := ref.Run.Records[s].Loss; math.Float64bits(rec.Loss) != math.Float64bits(want) {
				t.Errorf("GOMAXPROCS=%d step %d: master loss %v, engine at GOMAXPROCS=1 %v", procs, rec.Step, rec.Loss, want)
			}
		}
		for j := range ref.Params {
			if math.Float64bits(res.Params[j]) != math.Float64bits(ref.Params[j]) {
				t.Fatalf("GOMAXPROCS=%d: param %d = %v, engine at GOMAXPROCS=1 %v", procs, j, res.Params[j], ref.Params[j])
			}
		}
	}
}

// TestWorkerComputeStepAllocs pins a c = 2 worker's compute stage: warm,
// computeStep (both partitions' gradients on the shared compute helpers,
// then the sum encoder) makes no allocation at GOMAXPROCS 1, 2 or 4.
func TestWorkerComputeStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	parts, err := testData(t).Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	f := newFakeMaster(t)
	w, _, params := fakeWorker(t, f, func(cfg *WorkerConfig) {
		cfg.Partitions = []int{0, 1}
		cfg.Loaders = make([]*dataset.Loader, 2)
		for j := range cfg.Loaders {
			if cfg.Loaders[j], err = dataset.NewLoader(parts[j], 16, 42+int64(j)*7919); err != nil {
				t.Fatal(err)
			}
		}
	})
	defer w.c.close()
	step := 0
	compute := func() {
		if _, _, _, err := w.computeStep(step, params); err != nil {
			t.Fatal(err)
		}
		step++
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if allocs := testing.AllocsPerRun(50, compute); allocs != 0 {
			t.Errorf("GOMAXPROCS=%d: a c = 2 computeStep makes %v allocations per step, want 0", procs, allocs)
		}
	}
}

// TestUntracedServeAndTakeAllocationFree pins the two per-arrival sites
// that describe a step to the timeline: a worker's serve (compute and delay
// spans) and the master's take of an arrival (the worker's compute span). A
// span's args are a map, so without a Timeline neither may build one: an
// untraced serve — compute, a zero injected delay, the upload — and an
// untraced take allocate nothing. With a Timeline both still record their
// spans. Likewise an abandoned step builds its debug event's fields only
// for an event log that keeps debug events.
func TestUntracedServeAndTakeAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	f := newFakeMaster(t)
	w, _, params := fakeWorker(t, f, func(cfg *WorkerConfig) { cfg.Delay = straggler.None{} })
	defer w.c.close()
	w.c = newConn(&sinkConn{discard: true}, 0, nil) // the upload goes nowhere
	mb := newMailbox(len(params))
	step := 0
	serve := func() {
		p := mb.vecs.get()
		copy(p, params)
		if linkUp, err := w.serve(mb, stepWork{step: step, params: p}); !linkUp || err != nil {
			t.Fatalf("step %d: serve = %v, %v", step, linkUp, err)
		}
		step++
	}
	if allocs := testing.AllocsPerRun(50, serve); allocs != 0 {
		t.Errorf("an untraced serve makes %v allocations per step, want 0", allocs)
	}
	w.cfg.Timeline = events.NewTimeline(64)
	serve()
	if got := spanNames(w.cfg.Timeline); got["compute"] != 1 || got["delay"] != 1 {
		t.Errorf("a traced serve recorded spans %v, want one compute and one delay", got)
	}
	abandon := func() { w.abandon(phaseDelay, step) }
	unlogged := map[string]*events.Log{
		"no event log": nil,
		"an info log":  events.New(events.Config{MinLevel: events.LevelInfo}),
	}
	for name, ev := range unlogged {
		w.cfg.Events = ev
		if allocs := testing.AllocsPerRun(50, abandon); allocs != 0 {
			t.Errorf("an abandon with %s makes %v allocations, want 0", name, allocs)
		}
	}
	w.cfg.Events = events.New(events.Config{MinLevel: events.LevelDebug})
	abandon()
	if got := w.cfg.Events.Snapshot(); len(got) != 1 || got[0].Type != "worker.step_abandoned" {
		t.Errorf("a logged abandon recorded %v, want one worker.step_abandoned event", got)
	}

	m, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0", Strategy: freshISGC(t, 4, 2, 7),
		Model: model.SoftmaxRegression{Features: 6, Classes: 3}, Data: testData(t), LearningRate: 0.3, MaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.ln.Close()
	avail, coded := bitset.New(4), make([][]float64, 4)
	now := time.Now()
	a := arrival{worker: 2, step: 3, coded: make([]float64, 21), recvAt: now.Add(time.Millisecond),
		computeStart: now, computeDur: time.Millisecond}
	take := func() { m.take(a, 3, now, avail, coded) }
	for range 8192 { // fill the attribution report's sample cap, so no append grows it
		take()
	}
	if allocs := testing.AllocsPerRun(50, take); allocs != 0 {
		t.Errorf("an untraced take makes %v allocations per arrival, want 0", allocs)
	}
	m.cfg.Timeline = events.NewTimeline(64)
	take()
	if got := spanNames(m.cfg.Timeline); got["compute"] != 1 || len(got) != 1 {
		t.Errorf("a traced take recorded spans %v, want one compute", got)
	}
}

// spanNames counts tl's spans by name.
func spanNames(tl *events.Timeline) map[string]int {
	names := map[string]int{}
	for _, s := range tl.Spans() {
		names[s.Name]++
	}
	return names
}
