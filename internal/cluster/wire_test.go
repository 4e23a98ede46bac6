package cluster

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/model"
)

// pipePair returns two connected conns over an in-memory duplex pipe, both
// still in the gob registration phase.
func pipePair() (*conn, *conn) {
	a, b := net.Pipe()
	return newConn(a, 0, nil), newConn(b, 0, nil)
}

// framePair is pipePair past the hello: both ends speak binaryv1 frames.
func framePair() (*conn, *conn) {
	a, b := pipePair()
	a.upgrade()
	b.upgrade()
	return a, b
}

func TestEnvelopeRoundTrip(t *testing.T) {
	a, b := framePair()
	defer a.close()
	defer b.close()

	want := &Envelope{
		Kind:   MsgGradient,
		Worker: 3,
		Step:   17,
		Coded:  []float64{1.5, -2.25, 0},
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := a.send(want); err != nil {
			t.Error(err)
		}
	}()
	got, err := b.recv()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got.Kind != want.Kind || got.Worker != want.Worker || got.Step != want.Step {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if len(got.Coded) != 3 || got.Coded[1] != -2.25 {
		t.Fatalf("coded = %v", got.Coded)
	}
}

func TestEnvelopeParamsRoundTrip(t *testing.T) {
	a, b := framePair()
	defer a.close()
	defer b.close()

	params := make([]float64, 1000)
	for i := range params {
		params[i] = float64(i) * 0.5
	}
	go func() {
		_ = a.send(&Envelope{Kind: MsgStep, Step: 2, Params: params})
	}()
	got, err := b.recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != MsgStep || len(got.Params) != 1000 || got.Params[999] != 499.5 {
		t.Fatalf("bad round trip: kind=%s len=%d", got.Kind, len(got.Params))
	}
}

func TestRecvAfterCloseFails(t *testing.T) {
	a, b := pipePair()
	a.close()
	b.close()
	if _, err := b.recv(); err == nil {
		t.Fatal("recv on closed conn must fail")
	}
	if err := a.send(&Envelope{Kind: MsgStop}); err == nil {
		t.Fatal("send on closed conn must fail")
	}
}

func TestDialWithRetryTimesOut(t *testing.T) {
	start := time.Now()
	_, err := dialWithRetry("127.0.0.1:1", 200*time.Millisecond) // port 1: nothing listens
	if err == nil {
		t.Fatal("expected dial failure")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop ran too long: %v", elapsed)
	}
}

// TestMasterRejectsBadHello: a hello the master cannot register — an
// out-of-range worker id, no codec proposal, or a proposal of the retired
// gob data path — is closed without an ack, and nothing registers.
func TestMasterRejectsBadHello(t *testing.T) {
	st, err := engine.NewSyncSGD(2)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := dataset.SyntheticLinear(10, 2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st,
		Model: model.LinearRegression{Features: 2}, Data: data,
		LearningRate: 0.1, MaxSteps: 1, AcceptTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Run()
		done <- err
	}()
	// The master drops each connection (it must survive strangers mid-run)
	// and, with no valid workers ever registering, fails the accept phase
	// on its timeout.
	for name, hello := range map[string]*Envelope{
		"out-of-range worker id": {Kind: MsgHello, Worker: 99, Wire: WireBinary},
		"no codec proposal":      {Kind: MsgHello, Worker: 0},
		"gob proposal":           {Kind: MsgHello, Worker: 0, Wire: "gob"},
	} {
		raw, err := net.Dial("tcp", m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := newConn(raw, 0, nil)
		if err := c.send(hello); err != nil {
			t.Fatal(err)
		}
		if ack, err := c.recv(); err == nil {
			t.Errorf("%s: master answered %+v, want the connection closed", name, ack)
		}
		c.close()
	}
	if err := <-done; err == nil {
		t.Fatal("master must not start training without valid workers")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, ws := range m.workers {
		if ws != nil {
			t.Errorf("worker %d registered from a bad hello", id)
		}
	}
}

// TestWorkerRefusesGobAck: a master that acks the hello with any codec but
// binaryv1 — here the retired gob data path — fails NewWorker with a
// negotiation error instead of leaving a worker on an unknown codec.
func TestWorkerRefusesGobAck(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		c := newConn(raw, 0, nil)
		defer c.close()
		if _, err := c.recv(); err == nil {
			_ = c.send(&Envelope{Kind: MsgHello, Wire: "gob"})
		}
		_, _ = c.recv() // hold the connection until the worker drops it
	}()
	parts, err := testData(t).Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := dataset.NewLoader(parts[0], 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{
		Addr: ln.Addr().String(), ID: 0, Partitions: []int{0},
		Loaders: []*dataset.Loader{loader}, Model: model.SoftmaxRegression{Features: 6, Classes: 3},
		Encode: SumEncoder(), HeartbeatInterval: -1,
	})
	if err == nil {
		w.Stop()
		t.Fatal("NewWorker accepted a gob ack")
	}
	if msg := err.Error(); !strings.Contains(msg, "wire negotiation") || !strings.Contains(msg, `"gob"`) {
		t.Fatalf("NewWorker error %q, want a wire negotiation error naming the codec", msg)
	}
}

func TestMasterRejectsDuplicateWorker(t *testing.T) {
	st, err := engine.NewSyncSGD(2)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := dataset.SyntheticLinear(10, 2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st,
		Model: model.LinearRegression{Features: 2}, Data: data,
		LearningRate: 0.1, MaxSteps: 1, AcceptTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Run()
		done <- err
	}()
	dial := func() *conn {
		raw, err := net.Dial("tcp", m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c := newConn(raw, 0, nil)
		if _, err := clientHello(c, 0, 0); err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := dial()
	defer c1.close()
	c2 := dial()
	defer c2.close()
	// The duplicate registration for the live worker 0 is refused (its
	// connection closes after the ack) while the first one stays
	// registered; the master then times out waiting for the still-missing
	// worker 1.
	if _, err := c2.recv(); err == nil {
		t.Fatal("master must close the duplicate's connection")
	}
	if err := <-done; err == nil {
		t.Fatal("master must not start training with a missing worker")
	}
}

func TestMasterAcceptTimeout(t *testing.T) {
	st, err := engine.NewSyncSGD(2)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := dataset.SyntheticLinear(10, 2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st,
		Model: model.LinearRegression{Features: 2}, Data: data,
		LearningRate: 0.1, MaxSteps: 1, AcceptTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := m.Run(); err == nil {
		t.Fatal("master must fail when no workers register")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("accept timeout not enforced")
	}
}
