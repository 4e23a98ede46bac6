package cluster

import (
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/metrics"
	"isgc/internal/model"
	"isgc/internal/straggler"
)

// The abandonment tests count, they do not time: how many steps a worker
// gave up, uploaded and had ignored is exact under the protocol; the only
// clocks are generous upper bounds on "returns promptly".

// --- mailbox unit tests ------------------------------------------------------

func TestMailboxKeepsOnlyLiveSteps(t *testing.T) {
	for _, tc := range []struct {
		name      string
		staleness int
		arrivals  []int
		evicted   [][]int // per arrival
		served    []int   // what next() hands out afterwards, in order
	}{
		{"sync: newest wins", 0, []int{0, 1, 2}, [][]int{nil, {0}, {1}}, []int{2}},
		{"window of 2 keeps three steps", 2, []int{0, 1, 2, 3}, [][]int{nil, nil, nil, {0}}, []int{1, 2, 3}},
		{"jump evicts the whole backlog", 1, []int{4, 5, 9}, [][]int{nil, nil, {4, 5}}, []int{9}},
		{"late arrival behind a newer step", 0, []int{7, 6}, [][]int{nil, {6}}, []int{7}},
		{"re-delivery of the same step is not superseded", 0, []int{3, 3}, [][]int{nil, nil}, []int{3, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mb := newMailbox(tc.staleness, 0)
			for i, s := range tc.arrivals {
				got := mb.put(stepWork{step: s})
				if len(got) != len(tc.evicted[i]) {
					t.Fatalf("arrival %d evicted %v, want %v", s, got, tc.evicted[i])
				}
				for j := range got {
					if got[j] != tc.evicted[i][j] {
						t.Fatalf("arrival %d evicted %v, want %v", s, got, tc.evicted[i])
					}
				}
			}
			for _, want := range tc.served {
				st, end, _ := mb.next()
				if end != endNone || st.step != want {
					t.Fatalf("next = step %d end %d, want step %d", st.step, end, want)
				}
			}
		})
	}
}

func TestMailboxCheckVerdicts(t *testing.T) {
	mb := newMailbox(1, 0)
	mb.put(stepWork{step: 5})
	if live, _ := mb.check(5); !live {
		t.Fatal("the newest step must be live")
	}
	mb.put(stepWork{step: 6})
	if live, _ := mb.check(5); !live {
		t.Fatal("step 5 is inside the staleness window of step 6")
	}
	mb.put(stepWork{step: 7})
	if live, abandoned := mb.check(5); live || !abandoned {
		t.Fatalf("step 5 after step 7 with staleness 1: live=%v abandoned=%v, want superseded", live, abandoned)
	}
	// A lost connection interrupts without abandoning (the master
	// re-delivers its in-flight step on the rejoin); stop abandons.
	lost := newMailbox(0, 0)
	lost.finish(endConnLost, events.NoStep)
	if live, abandoned := lost.check(0); live || abandoned {
		t.Fatalf("after connection loss: live=%v abandoned=%v, want interrupted", live, abandoned)
	}
	stopped := newMailbox(0, 0)
	stopped.put(stepWork{step: 0})
	if got := stopped.finish(endStop, events.NoStep); len(got) != 1 || got[0] != 0 {
		t.Fatalf("stop evicted %v, want [0]", got)
	}
	if live, abandoned := stopped.check(1); live || !abandoned {
		t.Fatalf("after stop: live=%v abandoned=%v, want abandoned", live, abandoned)
	}
	if _, end, _ := stopped.next(); end != endStop {
		t.Fatalf("next after stop = %d, want endStop", end)
	}
}

func TestMailboxSleepIsInterruptible(t *testing.T) {
	mb := newMailbox(0, 0)
	mb.put(stepWork{step: 0})
	if live, _ := mb.sleep(0, time.Millisecond); !live {
		t.Fatal("an undisturbed delay must run to completion")
	}
	go mb.put(stepWork{step: 1})
	start := time.Now()
	if live, abandoned := mb.sleep(0, time.Hour); live || !abandoned {
		t.Fatalf("sleep through a newer step: live=%v abandoned=%v", live, abandoned)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("newer step took %v to interrupt an hour-long delay", d)
	}
}

func TestMailboxCyclesParamsBuffers(t *testing.T) {
	mb := newMailbox(0, 4)
	step := frameHeader{kind: MsgStep, dim: 4}
	a, b := mb.reserve(step), mb.reserve(step)
	if len(a) != 4 || len(b) != 4 || &a[0] == &b[0] {
		t.Fatal("a fresh mailbox hands out fresh buffers")
	}
	mb.put(stepWork{step: 0, params: a})
	mb.put(stepWork{step: 1, params: b}) // evicts step 0, frees a
	if got := mb.reserve(step); &got[0] != &a[0] {
		t.Fatal("evicted step's buffer was not recycled")
	}
	mb.vecs.put(a)
	if got := mb.reserve(frameHeader{kind: MsgStep, dim: 8}); len(got) != 8 {
		t.Fatalf("a step of another length got %d words, want a fresh 8", len(got))
	}
	if mb.reserve(frameHeader{kind: MsgGradient, dim: 4}) != nil {
		t.Fatal("a worker has no use for a gradient's payload")
	}
}

// --- fake master -------------------------------------------------------------

// fakeMaster is a scripted master: it completes the hello exchange with a
// staleness window in the ack, then hands each registered
// connection to the test, which decides exactly which steps arrive when.
type fakeMaster struct {
	ln        net.Listener
	staleness int
	conns     chan *fakeConn
}

type fakeConn struct {
	t     *testing.T
	c     *conn
	raw   net.Conn
	hello *Envelope
}

func newFakeMaster(t *testing.T, staleness int) *fakeMaster {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Buffered for every connection a test's worker may open.
	f := &fakeMaster{ln: ln, staleness: staleness, conns: make(chan *fakeConn, 4)}
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				close(f.conns)
				return
			}
			c := &fakeConn{t: t, c: newConn(raw, 0, nil), raw: raw}
			if c.hello, err = c.c.recv(); err != nil || c.hello.Kind != MsgHello {
				raw.Close()
				continue
			}
			if c.c.send(&Envelope{Kind: MsgHello, Step: f.staleness}) != nil {
				raw.Close()
				continue
			}
			f.conns <- c
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return f
}

func (f *fakeMaster) accept(t *testing.T) *fakeConn {
	t.Helper()
	select {
	case c, ok := <-f.conns:
		if !ok {
			t.Fatal("fake master closed")
		}
		return c
	case <-time.After(10 * time.Second):
		t.Fatal("worker never registered with the fake master")
		return nil
	}
}

func (c *fakeConn) send(e *Envelope) {
	c.t.Helper()
	if err := c.c.send(e); err != nil {
		c.t.Fatalf("fake master send %s: %v", e.Kind, err)
	}
}

func (c *fakeConn) steps(params []float64, steps ...int) {
	c.t.Helper()
	for _, s := range steps {
		c.send(&Envelope{Kind: MsgStep, Step: s, Params: params})
	}
}

// gradient returns the next gradient the worker uploads, skipping
// heartbeats.
func (c *fakeConn) gradient() *Envelope {
	c.t.Helper()
	_ = c.raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		e, err := c.c.recv()
		if err != nil {
			c.t.Fatalf("fake master: no gradient: %v", err)
		}
		if e.Kind == MsgGradient {
			return e
		}
	}
}

// fakeWorker registers one single-partition worker with the fake master.
func fakeWorker(t *testing.T, f *fakeMaster, shape func(*WorkerConfig)) (*Worker, *fakeConn, []float64) {
	t.Helper()
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	parts, err := testData(t).Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := dataset.NewLoader(parts[0], 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := WorkerConfig{
		Addr: f.ln.Addr().String(), ID: 0, Partitions: []int{0},
		Loaders: []*dataset.Loader{loader}, Model: mdl, Encode: SumEncoder(),
		HeartbeatInterval: -1,
	}
	if shape != nil {
		shape(&cfg)
	}
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, f.accept(t), mdl.InitParams(42)
}

// runAsync starts w.Run and returns a channel that yields when it returns.
func runAsync(t *testing.T, w *Worker) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := w.Run(); err != nil {
			t.Errorf("worker run: %v", err)
		}
	}()
	return done
}

func waitReturn(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("Run did not return within 2s of %s", what)
	}
}

// TestWorkerAbandonsOnlyOutsideStalenessWindow scripts the rule itself: a
// step is served while fewer than staleness+1 newer steps have arrived, and
// given up — before its upload — once one more has.
func TestWorkerAbandonsOnlyOutsideStalenessWindow(t *testing.T) {
	for _, tc := range []struct {
		name      string
		staleness int
		burst     []int // sent back to back while the worker sleeps on burst[0]
		uploaded  []int
		abandoned int64
	}{
		{"sync", 0, []int{1, 2, 3}, []int{3}, 2},
		{"staleness 2", 2, []int{3, 4, 5, 6}, []int{4, 5, 6}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeMaster(t, tc.staleness)
			ev := events.New(events.Config{MinLevel: events.LevelDebug})
			wm := NewWorkerMetrics(metrics.NewRegistry())
			w, c, params := fakeWorker(t, f, func(cfg *WorkerConfig) {
				cfg.Delay = straggler.Constant{D: 100 * time.Millisecond}
				cfg.Events, cfg.Metrics = ev, wm
			})
			done := runAsync(t, w)

			// Inside the window nothing is given up: staleness+1 steps in
			// flight are all served, in order.
			var warm []int
			for s := 0; s <= tc.staleness; s++ {
				warm = append(warm, s)
			}
			c.steps(params, warm...)
			for _, want := range warm {
				if g := c.gradient(); g.Step != want {
					t.Fatalf("upload for step %d, want %d", g.Step, want)
				}
			}
			if got := w.Health().Abandoned; got != 0 {
				t.Fatalf("abandoned %d steps inside the staleness window", got)
			}

			c.steps(params, tc.burst...)
			for _, want := range tc.uploaded {
				if g := c.gradient(); g.Step != want {
					t.Fatalf("upload for step %d, want %d", g.Step, want)
				}
			}
			c.send(&Envelope{Kind: MsgStop})
			waitReturn(t, done, "MsgStop")

			h := w.Health()
			if h.Abandoned != tc.abandoned {
				t.Errorf("abandoned = %d, want %d", h.Abandoned, tc.abandoned)
			}
			if want := int64(len(warm) + len(tc.uploaded)); h.StepsServed != want {
				t.Errorf("served = %d, want %d", h.StepsServed, want)
			}
			var counted uint64
			for _, phase := range []string{phaseQueued, phaseDelay, phasePresend} {
				counted += wm.StepsAbandoned.With(phase).Value()
			}
			if counted != uint64(tc.abandoned) {
				t.Errorf("isgc_worker_steps_abandoned_total sums to %d, want %d", counted, tc.abandoned)
			}
			var logged int64
			for _, e := range ev.Snapshot() {
				if e.Type == "worker.step_abandoned" {
					logged++
				}
			}
			if logged != tc.abandoned {
				t.Errorf("%d worker.step_abandoned events, want %d", logged, tc.abandoned)
			}
		})
	}
}

// TestAbandonedDelaySpanIsShortened pins the Timeline contract: the delay
// span of an abandoned step carries args.abandoned and its real length.
func TestAbandonedDelaySpanIsShortened(t *testing.T) {
	f := newFakeMaster(t, 0)
	tl := events.NewTimeline(64)
	delay := &switchDelay{d: time.Hour}
	w, c, params := fakeWorker(t, f, func(cfg *WorkerConfig) {
		cfg.Delay = delay
		cfg.Timeline = tl
	})
	done := runAsync(t, w)
	c.steps(params, 0)
	delay.waitSampled(t) // step 0 is computed and about to sleep
	c.steps(params, 1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var delays []events.Span
		for _, s := range tl.Spans() {
			if s.Name == "delay" {
				delays = append(delays, s)
			}
		}
		if len(delays) > 0 {
			s := delays[0]
			if s.Args["step"] != 0 || s.Args["abandoned"] != true {
				t.Fatalf("first delay span args = %v, want step 0 abandoned", s.Args)
			}
			if s.Dur >= time.Minute {
				t.Fatalf("abandoned delay span lasts %v, want its real (shortened) duration", s.Dur)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no delay span recorded")
		}
		time.Sleep(time.Millisecond)
	}
	c.send(&Envelope{Kind: MsgStop})
	waitReturn(t, done, "MsgStop")
}

// TestShutdownSignalsInterruptDelay: Worker.Stop() must cut an in-progress
// delay short, not wait it out (MsgStop is covered by
// TestIgnoredStragglerAbandonsEveryStep against a real master).
func TestShutdownSignalsInterruptDelay(t *testing.T) {
	t.Run("Stop", func(t *testing.T) {
		f := newFakeMaster(t, 0)
		w, c, params := fakeWorker(t, f, func(cfg *WorkerConfig) {
			cfg.Delay = straggler.Constant{D: time.Hour}
		})
		done := runAsync(t, w)
		c.steps(params, 0)
		w.Stop()
		waitReturn(t, done, "Stop()")
	})
}

// TestFaultScheduleSeesEveryReceivedStep: the seeded fault schedule is
// rolled for every step the worker receives, in order, whether the step is
// served or skipped — so a run's fault draws do not depend on how far the
// worker lagged.
func TestFaultScheduleSeesEveryReceivedStep(t *testing.T) {
	f := newFakeMaster(t, 0)
	seen := &recordingFault{}
	wm := NewWorkerMetrics(metrics.NewRegistry())
	w, c, params := fakeWorker(t, f, func(cfg *WorkerConfig) {
		cfg.Delay = drawingDelay{}
		cfg.Fault = seen
		cfg.Metrics = wm
	})
	done := runAsync(t, w)
	c.steps(params, 0, 1, 2, 3, 4)
	c.send(&Envelope{Kind: MsgStop})
	waitReturn(t, done, "MsgStop")
	seen.mu.Lock()
	defer seen.mu.Unlock()
	if len(seen.steps) != 5 {
		t.Fatalf("fault schedule consulted for steps %v, want 0..4", seen.steps)
	}
	for i, s := range seen.steps {
		if s != i {
			t.Fatalf("fault schedule consulted for steps %v, want 0..4 in order", seen.steps)
		}
	}
	if got := w.Health().Abandoned; got != 5 {
		t.Errorf("abandoned = %d, want all 5 received steps", got)
	}
	// The delay stream moves only for steps that got as far as their delay;
	// a step skipped in the mailbox never samples one.
	sampled := wm.StepsAbandoned.With(phaseDelay).Value() + wm.StepsAbandoned.With(phasePresend).Value()
	if _, draws := w.delaySrc.State(); draws != sampled {
		t.Errorf("delay stream at %d draws, want %d (one per sampled delay; %d steps skipped unsampled)",
			draws, sampled, wm.StepsAbandoned.With(phaseQueued).Value())
	}
}

// drawingDelay is an hour-long delay that consumes exactly one draw of the
// worker's delay stream per sample.
type drawingDelay struct{}

func (drawingDelay) Sample(rng *rand.Rand) time.Duration { rng.Int63(); return time.Hour }
func (drawingDelay) String() string                      { return "drawing(1h)" }

type recordingFault struct {
	mu    sync.Mutex
	steps []int
}

func (r *recordingFault) At(step int, rng *rand.Rand) straggler.FaultAction {
	r.mu.Lock()
	r.steps = append(r.steps, step)
	r.mu.Unlock()
	return straggler.FaultNone
}

func (r *recordingFault) String() string { return "recording" }

// goroutinesSettleTo polls until the goroutine count is back at baseline:
// every reader, heartbeat and lane goroutine the worker started has exited.
func goroutinesSettleTo(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d — leaked:\n%s", runtime.NumGoroutine(), baseline,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReaderRestartsOnRejoin covers both ways a connection ends under a
// worker that reconnects: the link drops while it sleeps in a delay, and an
// injected FaultDisconnect. Each time the reader must restart on the new
// connection, the re-delivered step must be served, and once Run returns no
// goroutine may be left behind.
func TestReaderRestartsOnRejoin(t *testing.T) {
	t.Run("link lost mid-delay", func(t *testing.T) {
		f := newFakeMaster(t, 0)
		baseline := runtime.NumGoroutine()
		delay := &switchDelay{d: time.Hour}
		w, c, params := fakeWorker(t, f, func(cfg *WorkerConfig) {
			cfg.Delay = delay
			cfg.ReconnectTimeout = 10 * time.Second
			cfg.HeartbeatInterval = 50 * time.Millisecond
		})
		done := runAsync(t, w)
		c.steps(params, 0)
		delay.waitSampled(t)
		delay.set(0)
		c.raw.Close() // the worker is asleep in step 0's delay

		c2 := f.accept(t)
		if c2.hello.Step != 0 {
			t.Errorf("rejoin hello reports %d completed steps, want 0", c2.hello.Step)
		}
		c2.steps(params, 0) // the master re-delivers its in-flight step
		if g := c2.gradient(); g.Step != 0 {
			t.Fatalf("upload for step %d after rejoin, want 0", g.Step)
		}
		c2.send(&Envelope{Kind: MsgStop})
		waitReturn(t, done, "MsgStop")
		h := w.Health()
		if h.Reconnects != 1 || h.StepsServed != 1 || h.Abandoned != 0 {
			t.Errorf("reconnects=%d served=%d abandoned=%d, want 1/1/0 (an interrupted step is re-delivered, not abandoned)",
				h.Reconnects, h.StepsServed, h.Abandoned)
		}
		c2.raw.Close()
		goroutinesSettleTo(t, baseline)
	})
	t.Run("injected disconnect", func(t *testing.T) {
		f := newFakeMaster(t, 0)
		baseline := runtime.NumGoroutine()
		w, c, params := fakeWorker(t, f, func(cfg *WorkerConfig) {
			cfg.Fault = straggler.DisconnectAt{Step: 1}
			cfg.ReconnectTimeout = 10 * time.Second
			cfg.HeartbeatInterval = 50 * time.Millisecond
		})
		done := runAsync(t, w)
		c.steps(params, 0)
		if g := c.gradient(); g.Step != 0 {
			t.Fatalf("upload for step %d, want 0", g.Step)
		}
		c.steps(params, 1) // the fault fires on receipt

		c2 := f.accept(t)
		c.raw.Close()
		if c2.hello.Step != 1 {
			t.Errorf("rejoin hello reports %d completed steps, want 1", c2.hello.Step)
		}
		c2.steps(params, 1) // re-delivery must not re-fire the fault
		if g := c2.gradient(); g.Step != 1 {
			t.Fatalf("upload for step %d after rejoin, want 1", g.Step)
		}
		c2.send(&Envelope{Kind: MsgStop})
		waitReturn(t, done, "MsgStop")
		if h := w.Health(); h.Reconnects != 1 || h.StepsServed != 2 || h.Abandoned != 0 {
			t.Errorf("reconnects=%d served=%d abandoned=%d, want 1/2/0", h.Reconnects, h.StepsServed, h.Abandoned)
		}
		c2.raw.Close()
		goroutinesSettleTo(t, baseline)
	})
}

// switchDelay is a delay model the test can shorten mid-run, and that says
// when the worker has sampled it (i.e. is about to sleep).
type switchDelay struct {
	mu      sync.Mutex
	d       time.Duration
	sampled chan struct{}
	once    sync.Once
}

func (s *switchDelay) Sample(*rand.Rand) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.once.Do(func() { close(s.ch()) })
	return s.d
}

func (s *switchDelay) ch() chan struct{} {
	if s.sampled == nil {
		s.sampled = make(chan struct{})
	}
	return s.sampled
}

func (s *switchDelay) set(d time.Duration) {
	s.mu.Lock()
	s.d = d
	s.mu.Unlock()
}

func (s *switchDelay) waitSampled(t *testing.T) {
	t.Helper()
	s.mu.Lock()
	ch := s.ch()
	s.mu.Unlock()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never sampled its delay")
	}
}

func (s *switchDelay) String() string { return "switch" }

// --- real master -------------------------------------------------------------

// observedFleet is one real master plus its workers, each with its own
// metrics, for the tests that count what a straggler did.
type observedFleet struct {
	master     *Master
	res        *engine.Result
	workers    []*Worker
	wm         []*WorkerMetrics
	helloBytes []uint64    // SentBytes right after registration
	masterDone time.Time   // master.Run returned
	workerDone []time.Time // worker i's Run returned
}

func runObservedFleet(t *testing.T, st engine.Strategy, mdl model.Model, data *dataset.Dataset,
	shapeMaster func(*MasterConfig), shapeWorker func(i int, c *WorkerConfig)) *observedFleet {
	t.Helper()
	n := st.N()
	mcfg := MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
		LearningRate: 0.3, Seed: 42, AcceptTimeout: 10 * time.Second,
	}
	shapeMaster(&mcfg)
	master, err := NewMaster(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Partition(n)
	if err != nil {
		t.Fatal(err)
	}
	f := &observedFleet{master: master, workers: make([]*Worker, n), wm: make([]*WorkerMetrics, n),
		helloBytes: make([]uint64, n), workerDone: make([]time.Time, n)}
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
				if loaders[j], err = dataset.NewLoader(parts[d], 16, 42+int64(d)*7919); err != nil {
					t.Error(err)
					return
				}
			}
			f.wm[i] = NewWorkerMetrics(metrics.NewRegistry())
			wcfg := WorkerConfig{
				Addr: master.Addr(), ID: i, Partitions: pids, Loaders: loaders,
				Model: mdl, Encode: SumEncoder(), DelaySeed: int64(i) + 1, Metrics: f.wm[i],
			}
			shapeWorker(i, &wcfg)
			wk, err := NewWorker(wcfg)
			if err != nil {
				t.Error(err)
				return
			}
			f.workers[i] = wk
			f.helloBytes[i] = f.wm[i].SentBytes.Value()
			if _, err := wk.Run(); err != nil {
				t.Error(err)
			}
			f.workerDone[i] = time.Now()
		}()
	}
	f.res, err = master.Run()
	f.masterDone = time.Now()
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	wg.Wait()
	return f
}

// TestIgnoredStragglerAbandonsEveryStep: under fastest-(n−1) a worker that
// would sleep an hour per step is ignored by the master — and now ignores
// the superseded steps itself. Counted: it gives up every step it received,
// uploads nothing (so the master has no stale delivery to ignore), and
// leaves as soon as the master is done instead of serving a backlog.
func TestIgnoredStragglerAbandonsEveryStep(t *testing.T) {
	const n, steps, slow = 4, 50, 3
	f := runObservedFleet(t, newCRStrategy(t, n), model.SoftmaxRegression{Features: 6, Classes: 3}, testData(t),
		func(c *MasterConfig) { c.W, c.MaxSteps = n-1, steps },
		func(i int, c *WorkerConfig) {
			if i == slow {
				c.Delay = straggler.Constant{D: time.Hour}
				c.HeartbeatInterval = -1 // nothing but the hello may leave this worker
			}
		})
	if f.res.Run.Steps() != steps {
		t.Fatalf("steps = %d, want %d", f.res.Run.Steps(), steps)
	}
	if late := f.workerDone[slow].Sub(f.masterDone); late > 2*time.Second {
		t.Errorf("hour-delay worker returned %v after the master finished, want < 2s", late)
	}
	h := f.workers[slow].Health()
	if h.Abandoned != steps || h.StepsServed != 0 {
		t.Errorf("slow worker abandoned=%d served=%d, want %d/0 (every received step)", h.Abandoned, h.StepsServed, steps)
	}
	if got := f.wm[slow].SentBytes.Value(); got != f.helloBytes[slow] {
		t.Errorf("slow worker sent %d bytes, want only its %d-byte hello", got, f.helloBytes[slow])
	}
	var counted uint64
	for _, phase := range []string{phaseQueued, phaseDelay, phasePresend} {
		counted += f.wm[slow].StepsAbandoned.With(phase).Value()
	}
	if counted != steps {
		t.Errorf("isgc_worker_steps_abandoned_total sums to %d, want %d", counted, steps)
	}
	for _, wa := range f.master.AttributionReport().Workers {
		if wa.Worker == slow && (wa.Ignored != 0 || wa.Chosen != 0) {
			t.Errorf("master saw %d chosen / %d ignored deliveries from the slow worker, want none", wa.Chosen, wa.Ignored)
		}
	}
	for i := 0; i < n; i++ {
		if i != slow && f.workers[i].Health().StepsServed == 0 {
			t.Errorf("fast worker %d served nothing", i)
		}
	}
}

// TestReaderDrainsWhileWorkerSleeps pins the mechanism behind the
// head-of-line fix: a worker asleep in an hour-long delay still reads its
// socket, so a master can write 32 MiB of broadcasts at it — several times
// what the loopback kernel buffers hold — without one send blocking.
func TestReaderDrainsWhileWorkerSleeps(t *testing.T) {
	const dim, broadcasts = 1 << 17, 32 // 1 MiB each
	f := newFakeMaster(t, 0)
	w, c, _ := fakeWorker(t, f, func(cfg *WorkerConfig) {
		cfg.Model = model.Constant{D: dim}
		cfg.Delay = straggler.Constant{D: time.Hour}
	})
	done := runAsync(t, w)
	params := make([]float64, dim)
	for s := 0; s < broadcasts; s++ {
		_ = c.raw.SetWriteDeadline(time.Now().Add(defaultWriteTimeout))
		c.steps(params, s)
	}
	c.send(&Envelope{Kind: MsgStop})
	waitReturn(t, done, "MsgStop")
	if got := w.Health().Abandoned; got != broadcasts {
		t.Errorf("abandoned = %d, want all %d received steps", got, broadcasts)
	}
}

// TestSlowWorkerDoesNotBlockBroadcast is the head-of-line regression against
// a real master: with 1 MiB parameter broadcasts, a worker that sleeps
// 300 ms per step used to stop reading its socket and fill its kernel
// buffer, after which the master's serial broadcast blocked on it every
// step — the whole fleet ran at the ignored straggler's pace, and a longer
// delay tripped the 5 s write deadline and evicted it.
func TestSlowWorkerDoesNotBlockBroadcast(t *testing.T) {
	const n, steps, slow = 4, 30, 0 // worker 0 is first in broadcast order
	const delay = 300 * time.Millisecond
	mdl := model.Constant{D: 1 << 17} // 1 MiB of params, no compute to speak of
	ev := events.New(events.Config{MinLevel: events.LevelDebug, RingSize: 1 << 12})
	start := time.Now()
	f := runObservedFleet(t, newCRStrategy(t, n), mdl, testData(t),
		func(c *MasterConfig) { c.W, c.MaxSteps, c.Events = n-1, steps, ev },
		func(i int, c *WorkerConfig) {
			if i == slow {
				c.Delay = straggler.Constant{D: delay}
			}
		})
	if f.res.Run.Steps() != steps {
		t.Fatalf("steps = %d, want %d", f.res.Run.Steps(), steps)
	}
	// Blocked on the slow reader the run takes about steps × delay; the
	// detector's own slowdown on 1 MiB frames is of that order, so the
	// clock is only consulted without it.
	if took := f.masterDone.Sub(start); !raceEnabled && took > steps*delay/2 {
		t.Errorf("run took %v: the broadcast is pacing on the slow worker (%d steps × %v)", took, steps, delay)
	}
	if got := f.master.Rejoins(); got != 0 {
		t.Errorf("rejoins = %d, want 0", got)
	}
	for _, e := range ev.Snapshot() {
		if e.Type == "master.worker_send_failed" || e.Type == "master.worker_evicted" {
			t.Errorf("master logged %s for worker %d at step %d", e.Type, e.Worker, e.Step)
		}
	}
	if last := f.res.Run.Records[steps-1]; last.Alive != n {
		t.Errorf("alive at the last step = %d, want %d (slow worker still in the fleet)", last.Alive, n)
	}
	if h := f.workers[slow].Health(); h.Abandoned+h.StepsServed != steps || h.Abandoned == 0 {
		t.Errorf("slow worker served %d + abandoned %d, want them to cover all %d steps with some abandoned",
			h.StepsServed, h.Abandoned, steps)
	}
}

// TestHelloAckCarriesStaleness: the master tells every registering worker
// its fold window in the hello ack (0 in sync mode), which is what lets a
// worker keep a step the master can still fold.
func TestHelloAckCarriesStaleness(t *testing.T) {
	for _, k := range []int{0, 2} {
		st, err := engine.NewISSGD(2)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMaster(MasterConfig{
			Addr: "127.0.0.1:0", Strategy: st, Model: model.SoftmaxRegression{Features: 6, Classes: 3},
			Data: testData(t), LearningRate: 0.1, MaxSteps: 1, Staleness: k, AcceptTimeout: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = m.Run() // fails its accept phase: only one of two workers registers
		}()
		raw, err := net.Dial("tcp", m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := newConn(raw, 0, nil)
		staleness, err := clientHello(c, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if staleness != k {
			t.Errorf("hello ack carries staleness %d, master runs with %d", staleness, k)
		}
		c.close()
		<-done
	}
}
