package cluster

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"

	"isgc/internal/checkpoint"
	"isgc/internal/dataset"
	"isgc/internal/events"
	"isgc/internal/model"
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
// critical path. Step t's loss runs after step t+1's broadcast, while the
// fleet computes — so a loss evaluation far slower than the fleet must not
// show up in any step's Elapsed (the gather clock starts once it is paid),
// and on the Timeline every step's loss span lies behind its own step span.
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
