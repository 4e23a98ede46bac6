package cluster

import (
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/model"
	"isgc/internal/straggler"
)

// TestPermanentEvictionFiresOnce covers the control plane's re-placement
// trigger: a worker that crashes and never rejoins fires
// OnPermanentEviction exactly once for its generation, no matter how many
// monitor ticks pass afterwards, and names the right worker.
func TestPermanentEvictionFiresOnce(t *testing.T) {
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	data := testData(t)
	st := freshISGC(t, 4, 2, 11)

	type eviction struct{ worker, gen int }
	var calls []eviction
	var mu sync.Mutex
	evicted := make(chan struct{}, 16)
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
		LearningRate: 0.3, W: 2, MaxSteps: 400, Seed: 42,
		LivenessTimeout: 150 * time.Millisecond,
		PermanentAfter:  200 * time.Millisecond,
		OnPermanentEviction: func(worker, gen int) {
			mu.Lock()
			calls = append(calls, eviction{worker, gen})
			mu.Unlock()
			evicted <- struct{}{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resCh := make(chan *engine.Result, 1)
	go func() {
		res, err := m.Run()
		if err != nil {
			t.Error(err)
		}
		resCh <- res
	}()

	// Worker 3 crashes permanently at step 5; the survivors keep the run
	// alive (W=2) with a small delay so the run comfortably outlasts the
	// eviction window plus many monitor ticks.
	parts, err := data.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		pids := st.Partitions(i)
		loaders := make([]*dataset.Loader, len(pids))
		for j, d := range pids {
			loaders[j], err = dataset.NewLoader(parts[d], 16, 42+int64(d)*7919)
			if err != nil {
				t.Fatal(err)
			}
		}
		cfg := WorkerConfig{
			Addr: m.Addr(), ID: i, Partitions: pids, Loaders: loaders,
			Model: mdl, Encode: SumEncoder(),
			Delay: fixedDelay{3 * time.Millisecond}, DelaySeed: int64(i) + 1,
		}
		if i == 3 {
			cfg.Fault = straggler.CrashAt{Step: 5}
			cfg.FaultSeed = 99
		}
		wk, err := NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = wk.Run() // the crashed worker exits with an error by design
		}()
	}

	select {
	case <-evicted:
	case <-time.After(30 * time.Second):
		t.Fatal("permanent eviction never fired")
	}
	// Give the monitor many more ticks to (wrongly) fire again, then end
	// the run.
	time.Sleep(600 * time.Millisecond)
	m.Stop()
	<-resCh
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 1 {
		t.Fatalf("OnPermanentEviction fired %d times, want exactly 1: %v", len(calls), calls)
	}
	if calls[0].worker != 3 {
		t.Fatalf("evicted worker = %d, want 3", calls[0].worker)
	}
}

// TestJobGoneEndsReconnectEarly covers the bounded reject: a worker that
// loses its master and redials into a MsgJobGone responder (a drained
// job's tombstone) gives up immediately with JobGone() set, instead of
// burning its whole redial budget against an address that will never come
// back.
func TestJobGoneEndsReconnectEarly(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Fake master: the first connection completes the handshake and is then
	// dropped, as if the master died; every later hello is answered with
	// MsgJobGone, exactly what a control-plane tombstone does.
	var conns atomic.Int64
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			n := conns.Add(1)
			go func(raw net.Conn, n int64) {
				c := newConn(raw, 0, nil)
				defer c.close()
				if hello, err := c.recv(); err != nil || hello.Kind != MsgHello {
					return
				}
				if n == 1 {
					// Ack binaryv1, serve nothing, die.
					_ = c.send(&Envelope{Kind: MsgHello, Wire: WireBinary})
					time.Sleep(50 * time.Millisecond)
					return
				}
				_ = c.send(&Envelope{Kind: MsgJobGone})
			}(raw, n)
		}
	}()

	data := testData(t)
	parts, err := data.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := dataset.NewLoader(parts[0], 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 60 * time.Second
	w, err := NewWorker(WorkerConfig{
		Addr: ln.Addr().String(), ID: 0, Partitions: []int{0},
		Loaders: []*dataset.Loader{loader},
		Model:   model.SoftmaxRegression{Features: 6, Classes: 3},
		Encode:  SumEncoder(), ReconnectTimeout: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := w.Run(); err != nil {
		t.Fatalf("worker run: %v", err)
	}
	if elapsed := time.Since(start); elapsed > budget/2 {
		t.Fatalf("worker took %v to give up; MsgJobGone must end the redial budget (%v) early", elapsed, budget)
	}
	if !w.JobGone() {
		t.Fatal("worker did not latch JobGone after the terminal reject")
	}
	if got := conns.Load(); got < 2 {
		t.Fatalf("worker never redialed (connections=%d)", got)
	}
}

// TestWarmHandoffEquivalence is the re-placement handoff's correctness
// contract: a master stopped mid-run and succeeded by a fresh master with
// WarmState (in-memory params + next step + decoder RNG position) produces
// step records and final params bit-identical to an uninterrupted run — no
// disk involved — the checkpoint-equivalent path the scheduler uses
// between generations.
func TestWarmHandoffEquivalence(t *testing.T) {
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	data := testData(t)
	base := func(st engine.Strategy, addr string) MasterConfig {
		return MasterConfig{
			Addr: addr, Strategy: st, Model: mdl, Data: data,
			LearningRate: 0.3, W: 4, MaxSteps: 20, Seed: 42,
			// Bit-compare needs a pool-size-independent loss reduction.
			ComputePar: 1,
		}
	}

	// Uninterrupted reference.
	refMaster, err := NewMaster(base(freshISGC(t, 4, 2, 7), "127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	refFleet := startFleet(t, refMaster.cfg.Strategy, data, mdl, refMaster.Addr(), 0, nil)
	ref, err := refMaster.Run()
	if err != nil {
		t.Fatal(err)
	}
	refFleet.Wait()

	// First life on a fixed port, stopped mid-run. No checkpoint store —
	// the handoff is purely in-memory.
	addr := freeLoopbackAddr(t)
	st1 := freshISGC(t, 4, 2, 7)
	m1, err := NewMaster(base(st1, addr))
	if err != nil {
		t.Fatal(err)
	}
	fleet := startFleet(t, st1, data, mdl, addr, 30*time.Second, fixedDelay{8 * time.Millisecond})
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

	// Successor: fresh master and strategy objects, warm state handed over
	// in memory — params, next step, and the decoder RNG position.
	st2 := freshISGC(t, 4, 2, 7)
	if rs1, ok := st1.(engine.RandStateful); ok {
		seed, draws := rs1.RandState()
		st2.(engine.RandStateful).RestoreRandState(seed, draws)
	} else {
		t.Fatal("strategy does not expose its decoder RNG state")
	}
	cfg2 := base(st2, addr)
	cfg2.Warm = &WarmState{
		Params:     res1.Params,
		StartStep:  res1.Run.Records[res1.Run.Steps()-1].Step + 1,
		Generation: 1,
	}
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
		t.Fatalf("warm master generation = %d, want 1", gen)
	}
	combined := append(zeroElapsed(res1.Run.Records), zeroElapsed(res2.Run.Records)...)
	refRecs := zeroElapsed(ref.Run.Records)
	if len(combined) != len(refRecs) {
		t.Fatalf("two lives recorded %d steps, reference %d", len(combined), len(refRecs))
	}
	for i := range combined {
		if !reflect.DeepEqual(combined[i], refRecs[i]) {
			t.Fatalf("record %d diverged across the warm handoff:\n lives %+v\n   ref %+v", i, combined[i], refRecs[i])
		}
	}
	if !reflect.DeepEqual(res2.Params, ref.Params) {
		t.Fatal("final params are not bit-identical after the warm handoff")
	}
}
