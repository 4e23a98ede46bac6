package cluster

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/model"
)

// TestJobGoneEndsReconnectEarly covers the bounded reject: a worker that
// loses its master and redials into a MsgJobGone responder (a master that
// has finished the run) gives up immediately with JobGone() set, instead of
// burning its whole redial budget against a run that will never step
// again.
func TestJobGoneEndsReconnectEarly(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Fake master: the first connection completes the handshake and is then
	// dropped, as if the connection broke; every later hello is answered
	// with MsgJobGone, exactly what a finished master does.
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
					// Ack, serve nothing, die.
					_ = c.send(&Envelope{Kind: MsgHello})
					time.Sleep(50 * time.Millisecond)
					return
				}
				_ = c.send(&Envelope{Kind: MsgJobGone})
			}(raw, n)
		}
	}()

	const budget = 60 * time.Second
	w := redialingWorker(t, ln.Addr().String(), budget)
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

// TestJobGoneAfterAckEndsRun: a master that finishes between its ack and the
// registration sends MsgJobGone on the registered connection; the worker's
// reader latches it and Run ends at once, without a redial.
func TestJobGoneAfterAckEndsRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var conns atomic.Int64
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func(raw net.Conn) {
				c := newConn(raw, 0, nil)
				defer c.close()
				if hello, err := c.recv(); err != nil || hello.Kind != MsgHello {
					return
				}
				_ = c.send(&Envelope{Kind: MsgHello})
				_ = c.send(&Envelope{Kind: MsgJobGone})
				_, _ = c.recv() // hold the connection until the worker drops it
			}(raw)
		}
	}()

	const budget = 60 * time.Second
	w := redialingWorker(t, ln.Addr().String(), budget)
	start := time.Now()
	if _, err := w.Run(); err != nil {
		t.Fatalf("worker run: %v", err)
	}
	if elapsed := time.Since(start); elapsed > budget/2 {
		t.Fatalf("worker took %v to end after MsgJobGone", elapsed)
	}
	if !w.JobGone() {
		t.Fatal("worker did not latch JobGone from a registered connection")
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("worker dialed %d times; MsgJobGone after the ack must end it without a redial", got)
	}
}

// redialingWorker registers worker 0 of a 4-partition job at addr with the
// given reconnect budget.
func redialingWorker(t *testing.T, addr string, budget time.Duration) *Worker {
	t.Helper()
	parts, err := testData(t).Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := dataset.NewLoader(parts[0], 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{
		Addr: addr, ID: 0, Partitions: []int{0},
		Loaders: []*dataset.Loader{loader},
		Model:   model.SoftmaxRegression{Features: 6, Classes: 3},
		Encode:  SumEncoder(), ReconnectTimeout: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}
