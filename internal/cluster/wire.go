// Package cluster is the real distributed runtime: a master and n workers
// speaking a negotiated protocol over TCP (stdlib net only). It plays the
// role Ray plays in the paper's implementation (Sec. VIII-A): workers train
// on their partitions' mini-batches, upload coded gradients, and the master
// gathers the fastest w (the ray.wait(w) equivalent), decodes with the
// configured strategy, updates the parameters, and broadcasts them.
//
// Registration speaks gob — the low-rate control exchange where
// self-describing encoding is cheap and backward compatibility matters: the
// worker's hello proposes the binary frame codec (binary.go), the master's
// ack names it, and both sides switch. After the hello, every registered
// connection speaks frames only, one connection per worker; a hello without
// a proposal is refused.
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
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"isgc/internal/metrics"
)

// ErrJobGone is the terminal registration error: the peer answered a hello
// with MsgJobGone, meaning the job this worker was serving no longer exists
// anywhere behind that address. Reconnection is pointless — callers must
// stop redialing and (in fleet mode) return the worker to the pool.
var ErrJobGone = errors.New("cluster: job gone")

// Message kinds exchanged between master and workers.
const (
	// MsgHello registers a worker with the master. A rejoining worker
	// re-sends it with Step set to its last completed step.
	MsgHello = "hello"
	// MsgStep carries parameters from master to workers for one step.
	MsgStep = "step"
	// MsgGradient carries a coded gradient from a worker to the master.
	MsgGradient = "gradient"
	// MsgHeartbeat is a periodic worker→master liveness ping; it carries
	// no payload and exists so the master can distinguish "slow" from
	// "hung" on an otherwise idle connection.
	MsgHeartbeat = "heartbeat"
	// MsgStop tells workers to shut down cleanly.
	MsgStop = "stop"
	// MsgJobGone is a terminal registration reject: the master (or a
	// control-plane tombstone standing in for one) no longer runs the job
	// this worker belongs to. A worker that receives it stops its
	// reconnect loop immediately instead of burning the redial budget —
	// fleet workers return to the control plane's pool. Rides only in gob
	// messages (the registration phase), like the hello exchange: frames
	// have no type for it.
	MsgJobGone = "job_gone"
)

// WireBinary is the one codec name negotiated in the hello exchange: the
// connection upgrades to the binary frame codec of binary.go after it. The
// version suffix is part of the negotiated name, so a peer never misparses
// another version's frames.
const WireBinary = "binaryv1"

// wireBinaryLegacy is the sharded-upload codec older workers may still
// propose. The master registers such a hello like a WireBinary one and acks
// WireBinary, which those workers accept as a single-connection upload.
const wireBinaryLegacy = "binaryv2"

// maxWireNameLen caps the negotiation string a peer may claim in a hello.
const maxWireNameLen = 64

// maxVectorLen caps the Params/Coded length a peer may claim: a malformed
// or hostile envelope must not be able to commit the receiver to an absurd
// decode. 2^24 float64s is a 128 MiB vector — far beyond any model this
// runtime trains, and far below anything that would hurt the process.
const maxVectorLen = 1 << 24

// Envelope is the single wire message type; unused fields stay zero.
type Envelope struct {
	Kind string
	// Worker is the sender's worker id (Hello, Gradient, Heartbeat).
	Worker int
	// Step is the training step the message belongs to (Step, Gradient),
	// or the worker's last completed step on a rejoin Hello.
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
	// Wire is the codec negotiation field of the hello exchange: on a
	// worker's MsgHello it names the codec the worker proposes (a hello
	// without one is refused); on the master's MsgHello ack it names the
	// codec chosen for the rest of the connection. It rides only in
	// gob messages — binary frames cannot carry it, by construction.
	Wire string
	// Gen is the master's run generation on a MsgHello ack: 0 for a
	// first-life master, +1 per checkpoint restore or standby failover. A
	// worker that sees the generation change knows its master was reborn
	// from a durable checkpoint. Rides only in gob hello messages, like
	// Wire.
	Gen int
	// Staleness is the master's bounded-staleness window k on a MsgHello
	// ack (0 in sync mode and from masters that predate the field): a
	// gradient for step t can still be used until step t+k+1 is broadcast,
	// so a worker abandons step t only once a step newer than t+k arrives.
	// Rides only in gob hello messages, like Wire.
	Staleness int

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
	switch e.Kind {
	case MsgHello, MsgStep, MsgGradient, MsgHeartbeat, MsgStop, MsgJobGone:
	default:
		return fmt.Errorf("cluster: unknown message kind %q", e.Kind)
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
	if len(e.Wire) > maxWireNameLen {
		return fmt.Errorf("cluster: wire name length %d exceeds limit %d", len(e.Wire), maxWireNameLen)
	}
	if e.Gen < 0 {
		return fmt.Errorf("cluster: negative generation %d in %s", e.Gen, e.Kind)
	}
	if e.Staleness < 0 {
		return fmt.Errorf("cluster: negative staleness %d in %s", e.Staleness, e.Kind)
	}
	return nil
}

// decodeEnvelope decodes and validates one envelope from dec. A malformed
// or truncated stream must yield an error, never a crash: gob's own error
// paths are converted, any decoder panic is recovered, and the result is
// validated before anyone trusts it. This is the single choke point every
// received message passes through — the fuzz target FuzzDecodeMessage
// hammers it with adversarial bytes.
func decodeEnvelope(dec *gob.Decoder) (e *Envelope, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, err = nil, fmt.Errorf("cluster: decode panic: %v", r)
		}
	}()
	var env Envelope
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("cluster: recv: %w", err)
	}
	if err := validateEnvelope(&env); err != nil {
		return nil, err
	}
	return &env, nil
}

// DecodeMessage decodes a single envelope from a standalone gob stream
// (type descriptor + one value), as produced by EncodeMessage or by the
// first send on a fresh connection. It never panics on malformed input.
func DecodeMessage(data []byte) (*Envelope, error) {
	return decodeEnvelope(gob.NewDecoder(bytes.NewReader(data)))
}

// EncodeMessage renders one envelope as a standalone gob stream — the
// inverse of DecodeMessage, used by tests and fuzz seeds.
func EncodeMessage(e *Envelope) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return nil, fmt.Errorf("cluster: encode %s: %w", e.Kind, err)
	}
	return buf.Bytes(), nil
}

// conn wraps a net.Conn with the negotiated codec. Every connection starts
// in gob mode (the registration exchange); upgrade switches both directions
// to binary frames at a message boundary, which is safe because gob never
// reads past the end of a message. recv is safe for a single goroutine;
// send and sendShared are serialized internally so that heartbeat
// goroutines, broadcasts, and rejoin replies may share one connection.
type conn struct {
	raw net.Conn
	// r is the single buffered reader both codecs share. This is load-
	// bearing for the upgrade: gob.NewDecoder silently wraps any non-
	// ByteReader in its own bufio.Reader, whose readahead would swallow
	// the first binary frames if the frame parser read from raw directly.
	// Handing the decoder a bufio.Reader up front keeps every buffered
	// byte visible to whichever codec reads next.
	r   *bufio.Reader
	dec *gob.Decoder
	// binary is set by upgrade: all subsequent messages are frames.
	binary bool
	// sink says where a received frame's payload is read into; nil gives
	// each a fresh vector. Set before the connection's reader starts.
	sink payloadSink
	// hdrScratch receives each frame header.
	hdrScratch [frameHeaderSize]byte

	sendMu sync.Mutex
	enc    *gob.Encoder
	// sent counts every byte written, gob or frame (nil is off).
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
	cn := &conn{raw: c, r: bufio.NewReader(c), sent: sent, writeTimeout: writeTimeout}
	cn.enc, cn.dec = gob.NewEncoder(cn), gob.NewDecoder(cn.r)
	return cn
}

// Write is the counted write under the gob encoder.
func (c *conn) Write(p []byte) (int, error) {
	n, err := c.raw.Write(p)
	c.sent.Add(uint64(n))
	return n, err
}

// upgrade switches both directions to the binary frame codec. It must be
// called at a protocol quiet point — after the hello exchange, before the
// connection is visible to broadcasts or readers — on both peers of the
// connection.
func (c *conn) upgrade() {
	c.sendMu.Lock()
	c.binary = true
	c.sendMu.Unlock()
}

func (c *conn) send(e *Envelope) error {
	return c.sendShared(&frameCache{e: e})
}

// sendShared writes fc's envelope in this connection's codec under its own
// send lock and write deadline. A binary connection takes the header from fc
// — built by whichever connection asked first — and writes it and the
// envelope's own vector with one vectored write (one syscall, and sent-bytes
// sees the exact framed byte count); a connection still in its hello
// exchange encodes gob.
func (c *conn) sendShared(fc *frameCache) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	e := fc.e
	if c.writeTimeout > 0 {
		if err := c.raw.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return fmt.Errorf("cluster: send %s: %w", e.Kind, err)
		}
	}
	var err error
	if c.binary {
		err = c.writeFrame(fc)
	} else {
		err = c.enc.Encode(e)
	}
	if err != nil {
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

func (c *conn) recv() (*Envelope, error) {
	if c.binary {
		return c.recvFrame()
	}
	return decodeEnvelope(c.dec)
}

func (c *conn) close() error { return c.raw.Close() }

// clientHello runs the worker side of the registration exchange on a fresh
// connection: send the gob hello (carrying the last completed step on a
// rejoin and the binaryv1 proposal), wait for the master's ack naming it,
// and switch to frames. The returned ack carries the master's generation
// and staleness window. An ack naming any other codec is an error.
func clientHello(c *conn, id, step int) (*Envelope, error) {
	hello := &Envelope{Kind: MsgHello, Worker: id, Step: step, Wire: WireBinary}
	if err := c.send(hello); err != nil {
		return nil, err
	}
	_ = c.raw.SetReadDeadline(time.Now().Add(wireAckTimeout))
	ack, err := c.recv()
	if err != nil {
		return nil, fmt.Errorf("cluster: wire negotiation: %w", err)
	}
	_ = c.raw.SetReadDeadline(time.Time{})
	switch {
	case ack.Kind == MsgJobGone:
		return nil, ErrJobGone
	case ack.Kind != MsgHello:
		return nil, fmt.Errorf("cluster: wire negotiation: got %s before hello ack", ack.Kind)
	case ack.Wire != WireBinary:
		return nil, fmt.Errorf("cluster: wire negotiation: master chose codec %q", ack.Wire)
	}
	c.upgrade()
	return ack, nil
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
