package cluster

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/model"
)

// pipePair returns two connected conns over an in-memory duplex pipe.
func pipePair() (*conn, *conn) {
	a, b := net.Pipe()
	return newConn(a, 0, nil), newConn(b, 0, nil)
}

func TestEnvelopeRoundTrip(t *testing.T) {
	a, b := pipePair()
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
	a, b := pipePair()
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

// TestMasterRejectsBadHello: a first frame the master cannot register — an
// out-of-range worker id, another kind than hello, a payload-carrying step,
// bytes that are not a frame, a header cut short — is closed without a
// reply, and nothing registers.
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
	frame := func(e *Envelope) []byte {
		data, err := EncodeFrame(e)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	hello := frame(&Envelope{Kind: MsgHello, Worker: 0})
	badMagic := append([]byte("GOB!"), hello[4:]...)
	// The master drops each connection (it must survive strangers mid-run)
	// and, with no valid workers ever registering, fails the accept phase
	// on its timeout.
	for name, first := range map[string][]byte{
		"out-of-range worker id": frame(&Envelope{Kind: MsgHello, Worker: 99}),
		"heartbeat first":        frame(&Envelope{Kind: MsgHeartbeat, Worker: 0}),
		"step first":             frame(&Envelope{Kind: MsgStep, Step: 1, Params: []float64{1, 2}}),
		"job gone first":         frame(&Envelope{Kind: MsgJobGone}),
		"not a frame":            badMagic,
		"truncated header":       hello[:frameHeaderSize-1],
	} {
		raw, err := net.Dial("tcp", m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(first); err != nil {
			t.Fatal(err)
		}
		if cw, ok := raw.(*net.TCPConn); ok {
			_ = cw.CloseWrite() // a cut-short header ends at EOF, not the read deadline
		}
		expectClosedUnanswered(t, name, raw)
		raw.Close()
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

// expectClosedUnanswered fails unless the peer closes raw without writing a
// byte. A close with unread bytes in the peer's buffer may arrive as a reset
// instead of EOF; only a timeout means the peer kept the connection.
func expectClosedUnanswered(t *testing.T, name string, raw net.Conn) {
	t.Helper()
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := io.ReadAll(raw)
	var ne net.Error
	if len(reply) != 0 || errors.As(err, &ne) && ne.Timeout() {
		t.Errorf("%s: peer answered % x (err %v), want the connection closed unanswered", name, reply, err)
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
