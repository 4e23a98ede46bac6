// Package cluster is the real distributed runtime: a master and n workers
// speaking one binary frame protocol over TCP (stdlib net only). It plays
// the role Ray plays in the paper's implementation (Sec. VIII-A): workers
// train on their partitions' mini-batches, upload coded gradients, and the
// master gathers the fastest w (the ray.wait(w) equivalent), decodes with
// the configured strategy, updates the parameters, and broadcasts them.
//
// Every connection speaks frames (binary.go) from its first byte, one
// connection per worker: the worker's hello is a hello frame, the master
// answers with a hello frame of its own (the ack, carrying the staleness
// window) or a job-gone frame, and the step loop's frames follow. Bytes that
// do not open with a version-1 frame header are refused.
//
// Unlike the in-process engine, real workers do not just slow down — they
// die. The runtime therefore layers fault tolerance on top of the paper's
// protocol: the master tracks per-worker liveness (reader-exit notification
// plus periodic MsgHeartbeat), shrinks its gather target to the alive set
// when a flexible scheme permits it (IS-GC can decode any subset), fails
// fast for rigid schemes, and accepts mid-run rejoins from workers that
// redial after a disconnect.
//
// The engine package is the fast in-process twin used for experiments; this
// package demonstrates the same protocol end-to-end over real sockets and
// is exercised by integration tests and the examples/distributed binary.
package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"isgc/internal/metrics"
)

// ErrJobGone is the terminal registration error: the peer answered a hello
// with MsgJobGone, meaning the master behind that address has finished the
// run and will never broadcast another step. Reconnection is pointless —
// callers must stop redialing.
var ErrJobGone = errors.New("cluster: job gone")

// MsgKind is a message's kind. Its value is the frame type code (header
// byte 5), so a kind needs no mapping to go on the wire.
type MsgKind byte

// Message kinds exchanged between master and workers.
const (
	// MsgHello registers a worker with the master. A rejoining worker
	// re-sends it with Step set to its last completed step. The master's
	// ack is a hello too, whose Step is the staleness window k.
	MsgHello MsgKind = 1 + iota
	// MsgStep carries parameters from master to workers for one step.
	MsgStep
	// MsgGradient carries a coded gradient from a worker to the master.
	MsgGradient
	// MsgHeartbeat is a periodic worker→master liveness ping; it carries
	// no payload and exists so the master can distinguish "slow" from
	// "hung" on an otherwise idle connection.
	MsgHeartbeat
	// MsgStop tells workers to shut down cleanly.
	MsgStop
	// MsgJobGone is a terminal registration reject: the master finished
	// its run (converged, hit MaxSteps, or failed) and will run no further
	// step. A worker that receives it stops its reconnect loop immediately
	// instead of burning the redial budget.
	MsgJobGone
)

// known reports whether k is one of the kinds above.
func (k MsgKind) known() bool { return k >= MsgHello && k <= MsgJobGone }

func (k MsgKind) String() string {
	switch k {
	case MsgHello:
		return "hello"
	case MsgStep:
		return "step"
	case MsgGradient:
		return "gradient"
	case MsgHeartbeat:
		return "heartbeat"
	case MsgStop:
		return "stop"
	case MsgJobGone:
		return "job_gone"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// maxVectorLen caps the Params/Coded length a peer may claim: a malformed
// or hostile frame must not be able to commit the receiver to an absurd
// decode. 2^24 float64s is a 128 MiB vector — far beyond any model this
// runtime trains, and far below anything that would hurt the process.
const maxVectorLen = 1 << 24

// Envelope is the single wire message type; unused fields stay zero.
type Envelope struct {
	Kind MsgKind
	// Worker is the sender's worker id (Hello, Gradient, Heartbeat).
	Worker int
	// Step is the training step the message belongs to (Step, Gradient),
	// the worker's last completed step on its Hello, or the staleness window
	// k on the master's Hello ack (0 in sync mode): a gradient for step t
	// can still be used until step t+k+1 is broadcast, so a worker abandons
	// step t only once a step newer than t+k arrives.
	Step int
	// Params are the model parameters (Step).
	Params []float64
	// Coded is the worker's coded gradient (Gradient).
	Coded []float64
	// ComputeStartUnixNano is when the worker began computing the gradient
	// (Gradient; worker's clock, Unix nanoseconds, 0 = not reported). With
	// ComputeDurNanos it lets the master attribute a late arrival to slow
	// compute versus slow network. Cross-machine clock skew shifts the
	// start, not the duration.
	ComputeStartUnixNano int64
	// ComputeDurNanos is how long the gradient computation took
	// (Gradient; 0 = not reported).
	ComputeDurNanos int64
	// declined marks a received frame whose payload the connection's sink
	// refused: it was drained unread, and the reader skips the envelope.
	// Never on the wire.
	declined bool
}

// validateEnvelope enforces the structural invariants every well-formed
// message satisfies, independent of protocol state: a known kind, non-
// negative ids, and bounded vector lengths. Semantic checks (worker id in
// range, step currency, gradient dimension) stay with the master, which
// knows the cluster shape.
func validateEnvelope(e *Envelope) error {
	if !e.Kind.known() {
		return fmt.Errorf("cluster: unknown message kind %d", byte(e.Kind))
	}
	if e.Worker < 0 {
		return fmt.Errorf("cluster: negative worker id %d in %s", e.Worker, e.Kind)
	}
	if e.Step < 0 {
		return fmt.Errorf("cluster: negative step %d in %s", e.Step, e.Kind)
	}
	if len(e.Params) > maxVectorLen {
		return fmt.Errorf("cluster: params length %d exceeds limit %d", len(e.Params), maxVectorLen)
	}
	if len(e.Coded) > maxVectorLen {
		return fmt.Errorf("cluster: coded length %d exceeds limit %d", len(e.Coded), maxVectorLen)
	}
	if e.ComputeStartUnixNano < 0 {
		return fmt.Errorf("cluster: negative compute start %d in %s", e.ComputeStartUnixNano, e.Kind)
	}
	if e.ComputeDurNanos < 0 {
		return fmt.Errorf("cluster: negative compute duration %d in %s", e.ComputeDurNanos, e.Kind)
	}
	return nil
}

// conn wraps a net.Conn in the frame codec. recv is safe for a single
// goroutine; send and sendShared are serialized internally so that heartbeat
// goroutines, broadcasts, and rejoin replies may share one connection.
type conn struct {
	raw net.Conn
	// r buffers reads, so a frame header and the start of its payload come
	// in with one syscall.
	r *bufio.Reader
	// sink says where a received frame's payload is read into; nil gives
	// each a fresh vector. Set before the connection's reader starts.
	sink payloadSink
	// hdrScratch receives each frame header.
	hdrScratch [frameHeaderSize]byte

	sendMu sync.Mutex
	// sent counts every byte written (nil is off).
	sent *metrics.Counter
	// sendHdr, iov and wv are a frame send's header copy, its two segments
	// and the vectored write over them: a send allocates nothing.
	sendHdr [frameHeaderSize]byte
	iov     [2][]byte
	wv      net.Buffers
	// writeTimeout bounds each send so one stalled socket cannot wedge a
	// broadcast (0 = no deadline).
	writeTimeout time.Duration
}

// newConn wraps c. sent, when non-nil, accumulates every byte written to
// the connection (metrics instrumentation).
func newConn(c net.Conn, writeTimeout time.Duration, sent *metrics.Counter) *conn {
	return &conn{raw: c, r: bufio.NewReader(c), sent: sent, writeTimeout: writeTimeout}
}

func (c *conn) send(e *Envelope) error {
	return c.sendShared(&frameCache{e: e})
}

// sendShared writes fc's envelope under this connection's send lock and
// write deadline. It takes the header from fc — built by whichever
// connection asked first — and writes it and the envelope's own vector with
// one vectored write (one syscall, and sent-bytes sees the exact framed byte
// count).
func (c *conn) sendShared(fc *frameCache) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	e := fc.e
	if c.writeTimeout > 0 {
		if err := c.raw.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return fmt.Errorf("cluster: send %s: %w", e.Kind, err)
		}
	}
	if err := c.writeFrame(fc); err != nil {
		return fmt.Errorf("cluster: send %s: %w", e.Kind, err)
	}
	if c.writeTimeout > 0 {
		_ = c.raw.SetWriteDeadline(time.Time{})
	}
	return nil
}

// writeFrame writes fc's frame: the header, then the payload vector's words.
// The caller holds sendMu.
func (c *conn) writeFrame(fc *frameCache) error {
	hdr, vec, err := fc.frame()
	if err != nil {
		return err
	}
	// Copying the header keeps a caller's stack-held frameCache from escaping.
	c.iov[0] = c.sendHdr[:copy(c.sendHdr[:], hdr)]
	c.iov[1] = float64Bytes(vec)
	if !payloadIsMemory {
		c.iov[1] = make([]byte, 8*len(vec))
		encodePayload(c.iov[1], vec)
	}
	c.wv = c.iov[:2]
	if len(vec) == 0 {
		c.wv = c.iov[:1]
	}
	n, err := c.wv.WriteTo(c.raw)
	c.iov[1], c.wv = nil, nil
	c.sent.Add(uint64(n))
	return err
}

func (c *conn) close() error { return c.raw.Close() }

// clientHello runs the worker side of the hello exchange on a fresh
// connection: send the hello frame (carrying the last completed step on a
// rejoin) and wait for the master's ack, whose Step is the staleness window
// it returns. A job-gone reply is ErrJobGone.
func clientHello(c *conn, id, step int) (staleness int, err error) {
	if err := c.send(&Envelope{Kind: MsgHello, Worker: id, Step: step}); err != nil {
		return 0, err
	}
	_ = c.raw.SetReadDeadline(time.Now().Add(wireAckTimeout))
	ack, err := c.recv()
	if err != nil {
		return 0, fmt.Errorf("cluster: hello: %w", err)
	}
	_ = c.raw.SetReadDeadline(time.Time{})
	switch ack.Kind {
	case MsgHello:
		return ack.Step, nil
	case MsgJobGone:
		return 0, ErrJobGone
	default:
		return 0, fmt.Errorf("cluster: hello: got %s before the ack", ack.Kind)
	}
}

// wireAckTimeout bounds the wait for the master's hello ack: hanging on a
// peer that accepted the hello but never answers it would be worse than the
// explicit error.
const wireAckTimeout = 5 * time.Second

// dialWithRetry dials addr, retrying for up to timeout — workers typically
// start concurrently with the master.
func dialWithRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		c, err := net.DialTimeout("tcp", addr, 500*time.Millisecond)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: dial %s: %w", addr, lastErr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
