// The binary wire codec: a versioned, length-prefixed frame format, the one
// codec every connection speaks, the hello exchange included. A
// self-describing codec re-transmits type metadata, boxes every float64, and
// allocates per message; at 2^16-dim gradients that overhead would dominate
// the master's gather (the paper's per-iteration completion time, Fig. 12).
// A frame here is a fixed 36-byte little-endian header followed by raw
// IEEE-754 float64 payload words: no reflection, no per-value framing.
//
// On a little-endian host those payload bytes are the vector's own memory,
// and the connection path never copies them: float64Bytes views a []float64
// as its bytes, a send writes header and view with one vectored write, a
// receive reads the socket straight into the destination vector. That view
// is the package's one use of unsafe. It is sound because float64 has no
// invalid bit patterns (the per-word decoder accepted every payload word
// too), the []float64 supplies the alignment, and the view only goes to a
// Read or Write that returns before the vector is used again: it never
// outlives the vector. Hosts of the other byte order go through the per-word
// body AppendFrame and DecodeFrame keep (the spec and the fuzz targets); the
// host chooses, nothing configures it.
//
// Frame layout (all little-endian):
//
//	offset size field
//	0      4    magic "ISGC"
//	4      1    version (currently 1)
//	5      1    message type (1 hello, 2 step, 3 gradient, 4 heartbeat,
//	            5 stop, 6 job gone): the MsgKind value
//	6      2    reserved (must be zero in v1)
//	8      4    worker id
//	12     4    step (a worker's hello: its last completed step; the
//	            master's hello ack: 0, not read)
//	16     8    compute start (unix nanoseconds)
//	24     8    compute duration (nanoseconds)
//	32     4    dim — payload length in float64 words (the length prefix)
//	36     8·dim payload: params (step) or coded gradient (gradient)
//
// The encoding is canonical: for every envelope a frame can carry there is
// exactly one valid byte representation, and DecodeFrame rejects anything
// else (bad magic, version skew, nonzero reserved bytes, payload on a
// payload-free kind, truncated or trailing bytes). The hello is a frame too,
// so a connection opened in any other encoding fails at its first header.
package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Binary frame geometry and versioning.
const (
	frameMagic0 = 'I'
	frameMagic1 = 'S'
	frameMagic2 = 'G'
	frameMagic3 = 'C'

	// frameVersion is the current binary wire version. A decoder only
	// accepts frames of the exact version it speaks: silently misparsing
	// another layout would be far worse than a refused connection.
	frameVersion = 1

	frameHeaderSize = 36

	// maxFrameID bounds worker ids and steps on the wire. They travel as
	// uint32 but land in Go ints; capping at MaxInt32 keeps the conversion
	// safe on every platform.
	maxFrameID = math.MaxInt32
)

// framePayload returns the vector a frame of this kind carries. Only the
// hot-path kinds carry one; every other kind must have dim == 0.
func framePayload(e *Envelope) ([]float64, error) {
	switch e.Kind {
	case MsgStep:
		if len(e.Coded) != 0 {
			return nil, fmt.Errorf("cluster: %s frame cannot carry a coded gradient", e.Kind)
		}
		return e.Params, nil
	case MsgGradient:
		if len(e.Params) != 0 {
			return nil, fmt.Errorf("cluster: %s frame cannot carry params", e.Kind)
		}
		return e.Coded, nil
	default:
		if len(e.Params) != 0 || len(e.Coded) != 0 {
			return nil, fmt.Errorf("cluster: %s frame cannot carry a payload", e.Kind)
		}
		return nil, nil
	}
}

// putU32 and getU32 are the little-endian accessors the codec uses; spelled
// out here (rather than importing encoding/binary) they inline to single
// moves on little-endian hardware.
func putU32(b []byte, v uint32) {
	_ = b[3]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

func getU64(b []byte) uint64 {
	_ = b[7]
	return uint64(getU32(b)) | uint64(getU32(b[4:]))<<32
}

// AppendFrame appends the canonical version-1 encoding of e to dst and
// returns the extended slice. It refuses envelopes the frame format cannot
// represent faithfully: invalid envelopes, out-of-range ids, and payloads on
// payload-free kinds.
func AppendFrame(dst []byte, e *Envelope) ([]byte, error) {
	return appendFrame(dst, e, true)
}

// appendFrame encodes e as a frame; without body, the header only, for a
// send that writes the vector's own memory behind it.
func appendFrame(dst []byte, e *Envelope, body bool) ([]byte, error) {
	if err := validateEnvelope(e); err != nil {
		return nil, err
	}
	if e.Worker > maxFrameID {
		return nil, fmt.Errorf("cluster: worker id %d exceeds frame limit", e.Worker)
	}
	if e.Step > maxFrameID {
		return nil, fmt.Errorf("cluster: step %d exceeds frame limit", e.Step)
	}
	vec, err := framePayload(e)
	if err != nil {
		return nil, err
	}

	off := len(dst)
	need := frameHeaderSize
	if body {
		need += 8 * len(vec)
	}
	if cap(dst)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	h := dst[off:]
	h[0], h[1], h[2], h[3] = frameMagic0, frameMagic1, frameMagic2, frameMagic3
	h[4] = frameVersion
	h[5] = byte(e.Kind)
	h[6], h[7] = 0, 0
	putU32(h[8:], uint32(e.Worker))
	putU32(h[12:], uint32(e.Step))
	putU64(h[16:], uint64(e.ComputeStartUnixNano))
	putU64(h[24:], uint64(e.ComputeDurNanos))
	putU32(h[32:], uint32(len(vec)))
	if body {
		encodePayload(h[frameHeaderSize:], vec)
	}
	return dst, nil
}

// encodePayload writes vec as 8·len(vec) little-endian payload bytes into p.
func encodePayload(p []byte, vec []float64) {
	for i, v := range vec {
		putU64(p[8*i:], math.Float64bits(v))
	}
}

// EncodeFrame renders one envelope as a standalone binary frame, as used by
// tests, fuzz seeds, and the golden vectors.
func EncodeFrame(e *Envelope) ([]byte, error) {
	return AppendFrame(nil, e)
}

// frameHeader is the parsed fixed header of one binary frame.
type frameHeader struct {
	kind         MsgKind
	worker, step int
	computeStart int64
	computeDur   int64
	dim          int
}

// parseFrameHeader validates and parses a 36-byte header. Every rejection is
// an error, never a panic: this parser fronts adversarial bytes and is
// hammered by FuzzDecodeFrame.
func parseFrameHeader(h []byte) (frameHeader, error) {
	var fh frameHeader
	if len(h) < frameHeaderSize {
		return fh, fmt.Errorf("cluster: frame header truncated: %d of %d bytes", len(h), frameHeaderSize)
	}
	if h[0] != frameMagic0 || h[1] != frameMagic1 || h[2] != frameMagic2 || h[3] != frameMagic3 {
		return fh, fmt.Errorf("cluster: bad frame magic % x", h[:4])
	}
	if h[4] != frameVersion {
		return fh, fmt.Errorf("cluster: unsupported frame version %d (speak %d)", h[4], frameVersion)
	}
	fh.kind = MsgKind(h[5])
	if !fh.kind.known() {
		return fh, fmt.Errorf("cluster: unknown frame type %d", h[5])
	}
	if h[6] != 0 || h[7] != 0 {
		return fh, fmt.Errorf("cluster: nonzero reserved bytes % x in frame", h[6:8])
	}
	worker := getU32(h[8:])
	step := getU32(h[12:])
	if worker > maxFrameID || step > maxFrameID {
		return fh, fmt.Errorf("cluster: frame worker=%d step=%d exceed id limit", worker, step)
	}
	fh.worker = int(worker)
	fh.step = int(step)
	fh.computeStart = int64(getU64(h[16:]))
	fh.computeDur = int64(getU64(h[24:]))
	dim := getU32(h[32:])
	if dim > maxVectorLen {
		return fh, fmt.Errorf("cluster: frame dim %d exceeds limit %d", dim, maxVectorLen)
	}
	fh.dim = int(dim)
	return fh, nil
}

// frameEnvelope assembles the envelope a parsed header + payload describe
// and passes it through the shared validation choke point.
func frameEnvelope(fh frameHeader, vec []float64) (*Envelope, error) {
	e := &Envelope{
		Kind:                 fh.kind,
		Worker:               fh.worker,
		Step:                 fh.step,
		ComputeStartUnixNano: fh.computeStart,
		ComputeDurNanos:      fh.computeDur,
	}
	switch fh.kind {
	case MsgStep:
		e.Params = vec
	case MsgGradient:
		e.Coded = vec
	default:
		if fh.dim != 0 {
			return nil, fmt.Errorf("cluster: %s frame carries unexpected %d-word payload", fh.kind, fh.dim)
		}
	}
	if err := validateEnvelope(e); err != nil {
		return nil, err
	}
	return e, nil
}

// DecodeFrame decodes exactly one standalone binary frame. Truncated
// headers, short or trailing payload bytes, bad magic, version skew, and
// over-limit dims all error; nothing panics. It is the target of
// FuzzDecodeFrame.
func DecodeFrame(data []byte) (*Envelope, error) {
	fh, err := parseFrameHeader(data)
	if err != nil {
		return nil, err
	}
	if want := frameHeaderSize + 8*fh.dim; len(data) != want {
		return nil, fmt.Errorf("cluster: frame length %d, want %d for dim %d", len(data), want, fh.dim)
	}
	var vec []float64
	if fh.dim > 0 {
		vec = decodePayload(data[frameHeaderSize:], make([]float64, fh.dim))
	}
	return frameEnvelope(fh, vec)
}

// decodePayload fills vec from 8·len(vec) little-endian payload bytes.
func decodePayload(p []byte, vec []float64) []float64 {
	for i := range vec {
		vec[i] = math.Float64frombits(getU64(p[8*i:]))
	}
	return vec
}

// float64Bytes views v's memory as bytes for one Read or Write (sound: see
// the top of this file).
func float64Bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
}

// payloadIsMemory: the host is little-endian, a []float64's memory is its wire
// payload. Tests clear it to drive the per-word path of the other byte order.
var payloadIsMemory = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// frameCache holds the header of one outgoing envelope, built at most once;
// the payload is never encoded. A broadcast hands one cache to every
// connection, so a fleet costs one header. Not safe for concurrent use.
type frameCache struct {
	e     *Envelope
	hdr   [frameHeaderSize]byte
	built bool
	// encodes counts the headers built — what the encode-once test pins.
	encodes int
}

// frame returns the header, built on first use, and the payload vector that
// follows it on the wire.
func (fc *frameCache) frame() (hdr []byte, vec []float64, err error) {
	if !fc.built {
		if _, err = appendFrame(fc.hdr[:0], fc.e, false); err != nil {
			return nil, nil, err
		}
		fc.built = true
		fc.encodes++
	}
	vec, _ = framePayload(fc.e) // appendFrame accepted it
	return fc.hdr[:], vec, nil
}

// reset empties the cache for envelope e.
func (fc *frameCache) reset(e *Envelope) { fc.e, fc.built = e, false }

// payloadSink is a connection's one destination hook: recv asks
// it where a frame's payload goes before reading it, and reads the socket
// into the fh.dim-long vector it returns; nil declines, and the payload is
// discarded unread. A read that fails mid-payload ends the connection, and
// what was reserved dies with the registration (a lone vector: the GC's).
type payloadSink func(fh frameHeader) []float64

// declinePayload is the sink of a connection in its hello exchange, where no
// message carries a payload: a frame that does is drained unread.
func declinePayload(frameHeader) []float64 { return nil }

// vecPool is a bounded free list of dim-long vectors, a payloadSink's stock:
// a vector comes back once nothing reads or writes it; what does not fit, or
// never comes back, is the GC's.
type vecPool struct {
	dim  int
	free chan []float64
}

// get returns a dim-long vector with unspecified contents.
func (p *vecPool) get() []float64 {
	select {
	case v := <-p.free:
		return v
	default:
		return make([]float64, p.dim)
	}
}

// put takes back a vector; one that is not dim long is dropped.
func (p *vecPool) put(v []float64) {
	if len(v) == p.dim {
		select {
		case p.free <- v:
		default:
		}
	}
}

// recv reads one frame: the header into a per-connection array, then the
// payload straight into the vector the sink reserves for it (a fresh one
// without a sink). A frame the sink declines surfaces without its payload,
// marked declined.
func (c *conn) recv() (*Envelope, error) {
	if _, err := io.ReadFull(c.r, c.hdrScratch[:]); err != nil {
		return nil, fmt.Errorf("cluster: recv frame header: %w", err)
	}
	fh, err := parseFrameHeader(c.hdrScratch[:])
	if err != nil {
		return nil, err
	}
	e, err := frameEnvelope(fh, nil)
	if err != nil || fh.dim == 0 {
		return e, err
	}
	var dst []float64
	if c.sink != nil {
		dst = c.sink(fh)
	} else {
		dst = make([]float64, fh.dim)
	}
	if dst == nil {
		if _, err := c.r.Discard(8 * fh.dim); err != nil {
			return nil, fmt.Errorf("cluster: recv %s payload (%d words): %w", fh.kind, fh.dim, err)
		}
		e.declined = true
		return e, nil
	}
	p := float64Bytes(dst)
	if !payloadIsMemory {
		p = make([]byte, 8*fh.dim)
	}
	if _, err = io.ReadFull(c.r, p); err != nil {
		return nil, fmt.Errorf("cluster: recv %s payload (%d words): %w", fh.kind, fh.dim, err)
	}
	if !payloadIsMemory {
		decodePayload(p, dst)
	}
	if fh.kind == MsgStep {
		e.Params = dst
	} else {
		e.Coded = dst
	}
	return e, nil
}
