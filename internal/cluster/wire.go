// Package cluster is the real distributed runtime: a master and n workers
// speaking a negotiated protocol over TCP (stdlib net only). It plays the
// role Ray plays in the paper's implementation (Sec. VIII-A): workers train
// on their partitions' mini-batches, upload coded gradients, and the master
// gathers the fastest w (the ray.wait(w) equivalent), decodes with the
// configured strategy, updates the parameters, and broadcasts them.
//
// Registration speaks gob — the low-rate control exchange where
// self-describing encoding is cheap and backward compatibility matters: the
// worker's hello proposes a binary frame flavour (binary.go, or subframe.go
// for sharded uploads), the master's ack names the one chosen, and both
// sides switch. After the hello, every registered connection speaks frames
// only; a hello without a proposal is refused.
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

// Wire codec names, as negotiated in the hello exchange.
const (
	// WireBinary upgrades the connection to the binary frame codec of
	// binary.go after the hello exchange. The version suffix is part of
	// the negotiated name, so a peer never misparses another version's
	// frames.
	WireBinary = "binaryv1"
	// WireBinary2 is the dim-sharded extension of the binary codec: the
	// same frame grammar with a 44-byte header carrying an (offset, total)
	// sub-frame geometry, so one step's gradient may arrive split across
	// several parallel lane connections (see subframe.go). A worker
	// proposes it only when it wants more than one gather lane; the master
	// may negotiate down to v1 when sharding is capped on its side.
	WireBinary2 = "binaryv2"
)

// maxGatherShards caps how many parallel gather lanes one worker may
// negotiate. The win saturates with the memory bandwidth of a handful of
// decode goroutines; a hostile hello must not be able to open hundreds of
// sockets.
const maxGatherShards = 16

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
	// worker's MsgHello it names the frame flavour the worker proposes (a
	// hello without one is refused); on the master's MsgHello ack it names
	// the flavour chosen for the rest of the connection. It rides only in
	// gob messages — binary frames cannot carry it, by construction.
	Wire string
	// Gen is the master's run generation on a MsgHello ack: 0 for a
	// first-life master, +1 per checkpoint restore or standby failover. A
	// worker that sees the generation change knows its master was reborn
	// from a durable checkpoint. Rides only in gob hello messages, like
	// Wire.
	Gen int
	// Shards is the gather-lane negotiation field of the binaryv2 hello
	// exchange: on a worker's MsgHello it proposes how many parallel lane
	// connections the worker wants for its gradient uploads; on the
	// master's ack it names the granted count. Rides only in gob hello
	// messages, like Wire.
	Shards int
	// Staleness is the master's bounded-staleness window k on a MsgHello
	// ack (0 in sync mode and from masters that predate the field): a
	// gradient for step t can still be used until step t+k+1 is broadcast,
	// so a worker abandons step t only once a step newer than t+k arrives.
	// Rides only in gob hello messages, like Wire.
	Staleness int
	// Shard tags a lane-attach MsgHello with the lane index (1..Shards-1)
	// it registers; the primary connection is lane 0 and never sets it.
	// Rides only in gob hello messages.
	Shard int
	// Offset is the first gradient element a binaryv2 sub-frame carries
	// (Gradient only; whole uploads use 0).
	Offset int
	// Total is the full gradient dimension a binaryv2 sub-frame belongs
	// to (Gradient only; 0 on v1 envelopes, which always carry whole
	// vectors).
	Total int

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
	if e.Shards < 0 || e.Shards > maxGatherShards {
		return fmt.Errorf("cluster: shard count %d outside [0, %d] in %s", e.Shards, maxGatherShards, e.Kind)
	}
	if e.Staleness < 0 {
		return fmt.Errorf("cluster: negative staleness %d in %s", e.Staleness, e.Kind)
	}
	if e.Shard < 0 || e.Shard >= maxGatherShards {
		return fmt.Errorf("cluster: lane index %d outside [0, %d) in %s", e.Shard, maxGatherShards, e.Kind)
	}
	if e.Offset < 0 || e.Offset > maxVectorLen {
		return fmt.Errorf("cluster: sub-frame offset %d outside [0, %d] in %s", e.Offset, maxVectorLen, e.Kind)
	}
	if e.Total < 0 || e.Total > maxVectorLen {
		return fmt.Errorf("cluster: sub-frame total %d outside [0, %d] in %s", e.Total, maxVectorLen, e.Kind)
	}
	if e.Total == 0 && e.Offset != 0 {
		return fmt.Errorf("cluster: sub-frame offset %d without a total in %s", e.Offset, e.Kind)
	}
	if e.Total > 0 && e.Offset+len(e.Coded) > e.Total {
		return fmt.Errorf("cluster: sub-frame [%d, %d) exceeds total %d in %s",
			e.Offset, e.Offset+len(e.Coded), e.Total, e.Kind)
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
	// wireV2 selects the 44-byte binaryv2 header (sub-frame geometry) for
	// both directions; set together with binary by upgrade.
	wireV2 bool
	// sink says where a received frame's payload is read into; nil gives
	// each a fresh vector. Set before the connection's reader starts.
	sink payloadSink
	// hdrScratch is sized for the larger v2 header; v1 frames use the
	// first frameHeaderSize bytes.
	hdrScratch [frameHeaderSizeV2]byte

	sendMu sync.Mutex
	enc    *gob.Encoder
	// sent counts every byte written, gob or frame (nil is off).
	sent *metrics.Counter
	// sendHdr, iov and wv are a frame send's header copy, its two segments
	// and the vectored write over them: a send allocates nothing.
	sendHdr [frameHeaderSizeV2]byte
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

// upgrade switches both directions to the binary frame codec, binaryv1 or
// the binaryv2 sub-frame flavour. It must be called at a protocol quiet point
// — after the hello exchange, before the connection is visible to broadcasts
// or readers — on both peers of the connection.
func (c *conn) upgrade(v2 bool) {
	c.sendMu.Lock()
	c.binary, c.wireV2 = true, v2
	c.sendMu.Unlock()
}

func (c *conn) send(e *Envelope) error {
	return c.sendShared(&frameCache{e: e})
}

// sendShared writes fc's envelope in this connection's codec under its own
// send lock and write deadline. A binary connection takes the header from fc
// — built by whichever connection of its flavour asked first — and writes it
// and the envelope's own vector with one vectored write (one syscall, and
// sent-bytes sees the exact framed byte count); a connection still in its
// hello exchange encodes gob.
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

// writeFrame writes fc's frame: the header of the connection's flavour, then
// the payload vector's words. The caller holds sendMu.
func (c *conn) writeFrame(fc *frameCache) error {
	hdr, vec, err := fc.frame(c.wireV2)
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
// rejoin and the proposed frame flavour), wait for the master's ack naming
// the chosen one, and switch to it.
//
// shards > 1 raises the proposal to binaryv2 with that many gather lanes;
// the returned ack carries the negotiated flavour, the granted lane count
// and the master's generation, which the caller needs to attach the extra
// lane connections. The master may negotiate down to v1 when sharding is
// capped on its side — the worker then runs a single lane. An ack naming
// any other codec is an error.
func clientHello(c *conn, id, step, shards int) (*Envelope, error) {
	hello := &Envelope{Kind: MsgHello, Worker: id, Step: step, Wire: WireBinary}
	if shards > 1 {
		hello.Wire, hello.Shards = WireBinary2, shards
	}
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
	case ack.Wire != WireBinary && ack.Wire != WireBinary2:
		return nil, fmt.Errorf("cluster: wire negotiation: master chose codec %q", ack.Wire)
	}
	c.upgrade(ack.Wire == WireBinary2)
	return ack, nil
}

// laneHello attaches one extra gather-lane connection to an already
// registered binaryv2 worker: a gob hello tagged with the lane index and
// the master's generation (so a lane from a previous life cannot attach to
// a reborn master), answered by a binaryv2 ack, after which the lane
// speaks sub-frames only.
func laneHello(c *conn, id, lane, gen int) error {
	hello := &Envelope{Kind: MsgHello, Worker: id, Wire: WireBinary2, Shard: lane, Gen: gen}
	if err := c.send(hello); err != nil {
		return err
	}
	_ = c.raw.SetReadDeadline(time.Now().Add(wireAckTimeout))
	ack, err := c.recv()
	if err != nil {
		return fmt.Errorf("cluster: lane %d negotiation: %w", lane, err)
	}
	_ = c.raw.SetReadDeadline(time.Time{})
	if ack.Kind == MsgJobGone {
		return ErrJobGone
	}
	if ack.Kind != MsgHello || ack.Wire != WireBinary2 {
		return fmt.Errorf("cluster: lane %d negotiation: got %s wire %q", lane, ack.Kind, ack.Wire)
	}
	c.upgrade(true)
	return nil
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
