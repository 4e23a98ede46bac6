package cluster

import (
	"bytes"
	"math"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"isgc/internal/checkpoint"
	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/model"
	"isgc/internal/straggler"
)

// slowLoss is a model whose loss evaluation takes at least d.
type slowLoss struct {
	model.Model
	d time.Duration
}

func (s slowLoss) Loss(params []float64, batch []dataset.Sample) float64 {
	time.Sleep(s.d)
	return s.Model.Loss(params, batch)
}

// TestFinalizeStaysOffTheGatherClock pins what the step loop keeps off its
// critical path. Step t's loss runs inside step t+1's gather, while the
// fleet computes — so a loss evaluation far slower than the fleet must not
// show up in any step's Elapsed (the gather clock does not run while it is
// paid), and on the Timeline every step's loss span lies behind its own step
// span.
// Checkpoints get a span per write on their own track.
func TestFinalizeStaysOffTheGatherClock(t *testing.T) {
	const lossTime = 50 * time.Millisecond
	store, err := checkpoint.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	tl := events.NewTimeline(1 << 12)
	res, _ := runShapedCluster(t, func(c *MasterConfig) {
		c.Model = slowLoss{c.Model, lossTime}
		c.Timeline = tl
		c.Checkpoint, c.CheckpointEvery = store, 2
	}, nil)
	recs := res.Run.Records
	if len(recs) != 8 {
		t.Fatalf("%d records, want 8", len(recs))
	}
	for _, rec := range recs {
		// The fleet's whole step is a few hundred µs of compute on loopback.
		if rec.Elapsed >= lossTime {
			t.Errorf("step %d: gather took %v — it absorbed a %v loss evaluation", rec.Step, rec.Elapsed, lossTime)
		}
	}

	stepEnd := map[int]time.Time{}
	var steps, losses, gathers int
	var ckptSteps []int
	spans := tl.Spans()
	for _, s := range spans {
		if s.Cat == "step" {
			stepEnd[steps] = s.Start.Add(s.Dur)
			steps++
		}
	}
	for _, s := range spans {
		switch {
		case s.TID == 0 && s.Cat == "phase" && s.Name == "loss":
			k, _ := s.Args["step"].(int)
			if k != losses {
				t.Errorf("loss span %d carries step %v", losses, s.Args["step"])
			}
			if s.Start.Before(stepEnd[k]) {
				t.Errorf("step %d: loss span starts %v before its step span ends", k, stepEnd[k].Sub(s.Start))
			}
			if s.Dur < lossTime {
				t.Errorf("step %d: loss span lasts %v, the evaluation alone sleeps %v", k, s.Dur, lossTime)
			}
			losses++
		case s.TID == 0 && s.Cat == "phase" && s.Name == "gather":
			if s.Dur != recs[gathers].Elapsed {
				t.Errorf("step %d: gather span %v, record says %v", gathers, s.Dur, recs[gathers].Elapsed)
			}
			gathers++
		case s.Name == "checkpoint":
			if s.TID != 4+1 {
				t.Errorf("checkpoint span on track %d, want its own track %d", s.TID, 4+1)
			}
			k, _ := s.Args["step"].(int)
			ckptSteps = append(ckptSteps, k)
			if w, ok := s.Args["waited_ms"]; ok {
				if ms, _ := w.(float64); ms <= 0 {
					t.Errorf("checkpoint %d: waited_ms = %v, want it only when the loop was blocked", k, w)
				}
			}
		}
	}
	if steps != 8 || losses != 8 || gathers != 8 {
		t.Errorf("timeline has %d step, %d loss and %d gather spans, want 8 each", steps, losses, gathers)
	}
	// Boundaries 2, 4, 6 behind the loop, then the Completed snapshot.
	if want := []int{2, 4, 6, 8}; !reflect.DeepEqual(ckptSteps, want) {
		t.Errorf("checkpoint spans for steps %v, want %v", ckptSteps, want)
	}
}

// slowAfterFirst delays every step of a worker but its first by d.
type slowAfterFirst struct {
	d      time.Duration
	served bool
}

func (s *slowAfterFirst) Sample(*rand.Rand) time.Duration {
	if !s.served {
		s.served = true
		return 0
	}
	return s.d
}

func (s *slowAfterFirst) String() string { return "slow-after-first" }

// TestFinalizeWaitsForFirstArrival pins when step k's finalize is paid:
// inside step k+1's gather, once its first gradient frame has arrived, so
// the fleet starts computing before the master does. From step 1 on the
// delayed workers upload after a delay longer than the loss, and the
// StepTimeout is shorter than the loss; the run must still gather and time
// out nothing, since no StepTimeout counts the loss.
//
//   - fastest-w, and deadline with a deadline every worker beats: worker 0
//     uploads at once, so the loss is paid on its frame while the gather
//     still waits for the others, and the StepTimeout fires during the pay.
//     Step k's loss span on the Timeline starts after the first worker
//     compute span of step k+1 ends, and every step gathers all 4.
//   - deadline missed: every worker uploads past a deadline shorter than
//     the loss, so the loss is paid as the gather starts (paid any later,
//     it would run past the deadline), and the second phase waits for the
//     first arrival on a StepTimeout that starts once the loss is paid.
func TestFinalizeWaitsForFirstArrival(t *testing.T) {
	const lossTime, stepTimeout, delay, steps = 100 * time.Millisecond, 80 * time.Millisecond, 140 * time.Millisecond, 6
	for _, tc := range []struct {
		name     string
		deadline time.Duration
		// missed: every worker is delayed past the deadline.
		missed bool
	}{{"fastest-w", 0, false}, {"deadline", time.Minute, false}, {"deadline-missed", 20 * time.Millisecond, true}} {
		t.Run(tc.name, func(t *testing.T) {
			tl := events.NewTimeline(1 << 12)
			res, mm := runShapedCluster(t, func(c *MasterConfig) {
				c.Model = slowLoss{c.Model, lossTime}
				c.Timeline = tl
				c.StepTimeout = stepTimeout
				c.Deadline = tc.deadline
				c.MaxSteps = steps
			}, func(i int, c *WorkerConfig) {
				if i > 0 || tc.missed {
					c.Delay = &slowAfterFirst{d: delay}
				}
			})
			if len(res.Run.Records) != steps {
				t.Fatalf("%d records, want %d", len(res.Run.Records), steps)
			}
			if got := mm.DegradedSteps.Value(); got != 0 {
				t.Errorf("%d degraded steps counted, want 0", got)
			}
			if tc.missed {
				// Run returning without a step-timeout error is the check.
				return
			}
			for _, rec := range res.Run.Records {
				if rec.Degraded || rec.Available != 4 {
					t.Errorf("step %d: degraded %v with %d of 4 gathered — the %v timeout counted a %v loss",
						rec.Step, rec.Degraded, rec.Available, stepTimeout, lossTime)
				}
			}

			firstCompute := map[int]time.Time{}
			lossStart := map[int]time.Time{}
			for _, s := range tl.Spans() {
				k, _ := s.Args["step"].(int)
				switch {
				case s.Cat == "compute":
					if end := s.Start.Add(s.Dur); firstCompute[k].IsZero() || end.Before(firstCompute[k]) {
						firstCompute[k] = end
					}
				case s.TID == 0 && s.Name == "loss":
					lossStart[k] = s.Start
				}
			}
			if len(lossStart) != steps {
				t.Fatalf("%d loss spans, want %d", len(lossStart), steps)
			}
			// The last step's loss is paid after the loop: no step follows.
			for k := 0; k < steps-1; k++ {
				first, ok := firstCompute[k+1]
				if !ok {
					t.Fatalf("no compute span for step %d", k+1)
				}
				if lossStart[k].Before(first) {
					t.Errorf("step %d: loss starts %v before step %d's first compute span ends",
						k, first.Sub(lossStart[k]), k+1)
				}
			}
		})
	}
}

// paramsLog is a model that keeps a copy of the parameters of every loss
// and gradient it evaluates.
type paramsLog struct {
	model.Model
	mu     sync.Mutex
	params [][]float64
}

func (p *paramsLog) keep(params []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// A step may evaluate several batches on the same parameters.
	if n := len(p.params); n > 0 && bitsEqual(p.params[n-1], params) {
		return
	}
	p.params = append(p.params, append([]float64(nil), params...))
}

func (p *paramsLog) Loss(params []float64, batch []dataset.Sample) float64 {
	p.keep(params)
	return p.Model.Loss(params, batch)
}

func (p *paramsLog) GradInto(dst, params []float64, batch []dataset.Sample) {
	p.keep(params)
	p.Model.GradInto(dst, params, batch)
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestLossReadsBroadcastParams pins that step t's loss is evaluated on
// exactly the parameters step t+1 broadcast, although the loss is paid inside
// step t+1's gather: the master waits for 3 of 4 workers, and worker 3 is
// slow enough that each gather ends without it and its late work is ignored.
// The master's loss evaluations and the workers' gradients each log their
// parameters; the broadcasts are then the initial parameters followed by
// the loss parameters of every step but the last, and each worker's
// gradients must walk that list in order. Every broadcast must reach a
// worker, and the last loss reads the final parameters.
func TestLossReadsBroadcastParams(t *testing.T) {
	st, err := engine.NewISSGD(4)
	if err != nil {
		t.Fatal(err)
	}
	var master paramsLog
	workers := make([]*paramsLog, 4)
	res, _ := runStrategyCluster(t, st, func(c *MasterConfig) {
		c.W = 3
		c.MaxSteps = 12
		master.Model = c.Model
		c.Model = &master
	}, func(i int, c *WorkerConfig) {
		workers[i] = &paramsLog{Model: c.Model}
		c.Model = workers[i]
		// Worker 3 would arrive ~20ms after the others.
		d := 40 * time.Millisecond
		if i == 3 {
			d = 60 * time.Millisecond
		}
		c.Delay = straggler.Constant{D: d}
	})
	losses := master.params
	if len(losses) != len(res.Run.Records) {
		t.Fatalf("%d loss evaluations on distinct parameters, %d records", len(losses), len(res.Run.Records))
	}
	if !bitsEqual(losses[len(losses)-1], res.Params) {
		t.Error("the last step's loss was not evaluated on the final parameters")
	}
	bcasts := append([][]float64{master.InitParams(42)}, losses[:len(losses)-1]...)
	seen := make([]bool, len(bcasts))
	for i, w := range workers {
		j := 0
		for g, p := range w.params {
			for j < len(bcasts) && !bitsEqual(bcasts[j], p) {
				j++
			}
			if j == len(bcasts) {
				t.Fatalf("worker %d's gradient %d ran on parameters no step's loss read: a loss missed a broadcast", i, g)
			}
			seen[j] = true
		}
	}
	for j, ok := range seen {
		if !ok {
			t.Errorf("broadcast %d (the initial parameters or a loss's) reached no worker", j)
		}
	}
}

// sinkConn is the far end of a connection nobody reads: it keeps what was
// written, or only swallows it.
type sinkConn struct {
	net.Conn
	buf     bytes.Buffer
	discard bool
}

func (s *sinkConn) Write(p []byte) (int, error) {
	if s.discard {
		return len(p), nil
	}
	return s.buf.Write(p)
}
func (s *sinkConn) SetWriteDeadline(time.Time) error { return nil }
func (s *sinkConn) Close() error                     { return nil }

// TestBroadcastEncodesOncePerFlavour drives Master.broadcast over four
// frame connections. Every connection must receive exactly the bytes the
// reference encoder produces for the envelope; the header is built once per
// broadcast, not once per worker (the payload is never encoded at all); and a
// steady-state broadcast allocates nothing.
func TestBroadcastEncodesOncePerFlavour(t *testing.T) {
	m, err := NewMaster(MasterConfig{Addr: "127.0.0.1:0", Strategy: freshISGC(t, 6, 2, 7),
		Model: model.SoftmaxRegression{Features: 6, Classes: 3}, Data: testData(t), LearningRate: 0.3, MaxSteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.ln.Close()

	sinks := make([]*sinkConn, 4)
	m.workers = make([]*workerState, len(sinks))
	for i := range sinks {
		sinks[i] = &sinkConn{}
		c := newConn(sinks[i], defaultWriteTimeout, nil)
		m.workers[i] = &workerState{c: c, alive: true}
	}

	params := make([]float64, 257)
	for i := range params {
		params[i] = float64(i) * 0.25
	}
	for _, e := range []*Envelope{
		{Kind: MsgStep, Step: 3, Params: params},
		{Kind: MsgStep, Step: 4, Params: params[:100]},
		{Kind: MsgStop},
	} {
		want, err := EncodeFrame(e)
		if err != nil {
			t.Fatal(err)
		}

		before := m.bcastFrames.encodes
		m.broadcast(e)
		if got := m.bcastFrames.encodes - before; got != 1 {
			t.Errorf("%s step %d: %d header builds for 4 connections, want one per broadcast", e.Kind, e.Step, got)
		}
		for i := range sinks {
			if !bytes.Equal(sinks[i].buf.Bytes(), want) {
				t.Errorf("%s step %d: connection %d received %d bytes that differ from its reference encoding (%d bytes)",
					e.Kind, e.Step, i, sinks[i].buf.Len(), len(want))
			}
			sinks[i].buf.Reset()
		}
	}

	if raceEnabled {
		return // allocation counts are not meaningful under -race
	}
	for _, s := range sinks {
		s.discard = true
	}
	e := &Envelope{Kind: MsgStep, Step: 5, Params: params}
	m.broadcast(e) // warm the connection snapshot
	if avg := testing.AllocsPerRun(100, func() { m.broadcast(e) }); avg != 0 {
		t.Errorf("broadcast allocates %.1f objects per call in steady state, want 0", avg)
	}
}
