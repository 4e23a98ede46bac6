// The binary wire codec: a versioned, length-prefixed frame format for the
// gradient/params hot path. gob re-transmits type metadata, boxes every
// float64, and allocates per message; at 2^16-dim gradients that overhead
// dominates the master's gather (the paper's per-iteration completion time,
// Fig. 12). A frame here is a fixed 36-byte little-endian header followed
// by raw IEEE-754 float64 payload words, written via math.Float64bits —
// no reflection, no per-value framing, no unsafe.
//
// Frame layout (all little-endian):
//
//	offset size field
//	0      4    magic "ISGC"
//	4      1    version (currently 1)
//	5      1    message type (1 hello, 2 step, 3 gradient, 4 heartbeat, 5 stop)
//	6      2    reserved (must be zero in v1)
//	8      4    worker id
//	12     4    step
//	16     8    compute start (unix nanoseconds)
//	24     8    compute duration (nanoseconds)
//	32     4    dim — payload length in float64 words (the length prefix)
//	36     8·dim payload: params (step) or coded gradient (gradient)
//
// The encoding is canonical: for every envelope a frame can carry there is
// exactly one valid byte representation, and DecodeFrame rejects anything
// else (bad magic, version skew, nonzero reserved bytes, payload on a
// payload-free kind, truncated or trailing bytes). The negotiation that
// selects this codec per connection rides in the gob hello exchange — see
// wire.go — so frames never appear on a connection whose peer did not opt
// in.
package cluster

import (
	"fmt"
	"io"
	"math"
	"sync"
)

// Binary frame geometry and versioning.
const (
	frameMagic0 = 'I'
	frameMagic1 = 'S'
	frameMagic2 = 'G'
	frameMagic3 = 'C'

	// frameVersion is the current binary wire version. A decoder only
	// accepts frames of the exact version it speaks: version skew is a
	// negotiation bug, and silently misparsing a future layout would be
	// far worse than an eviction.
	frameVersion = 1

	frameHeaderSize = 36

	// maxFrameID bounds worker ids and steps on the wire. They travel as
	// uint32 but land in Go ints; capping at MaxInt32 keeps the conversion
	// safe on every platform.
	maxFrameID = math.MaxInt32
)

// Binary message type codes (header byte 5).
const (
	frameTypeHello     = 1
	frameTypeStep      = 2
	frameTypeGradient  = 3
	frameTypeHeartbeat = 4
	frameTypeStop      = 5
)

// frameTypeOf maps an envelope kind to its wire code (0 = unencodable).
func frameTypeOf(kind string) byte {
	switch kind {
	case MsgHello:
		return frameTypeHello
	case MsgStep:
		return frameTypeStep
	case MsgGradient:
		return frameTypeGradient
	case MsgHeartbeat:
		return frameTypeHeartbeat
	case MsgStop:
		return frameTypeStop
	default:
		return 0
	}
}

// frameKindOf maps a wire code back to the envelope kind ("" = unknown).
func frameKindOf(t byte) string {
	switch t {
	case frameTypeHello:
		return MsgHello
	case frameTypeStep:
		return MsgStep
	case frameTypeGradient:
		return MsgGradient
	case frameTypeHeartbeat:
		return MsgHeartbeat
	case frameTypeStop:
		return MsgStop
	default:
		return ""
	}
}

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

// AppendFrame appends the canonical binaryv1 encoding of e to dst and
// returns the extended slice. It refuses envelopes the frame format cannot
// represent faithfully: invalid envelopes, negotiation fields (Wire rides
// only in the gob hello exchange), sub-frame geometry (binaryv2 only),
// out-of-range ids, and payloads on payload-free kinds.
func AppendFrame(dst []byte, e *Envelope) ([]byte, error) {
	return appendFrame(dst, e, false)
}

// appendFrame encodes e in either flavour of the frame grammar: binaryv1,
// or binaryv2 with its version byte and the two geometry words behind the
// shared header (see subframe.go for who may carry geometry).
func appendFrame(dst []byte, e *Envelope, v2 bool) ([]byte, error) {
	if err := validateEnvelope(e); err != nil {
		return nil, err
	}
	if e.Wire != "" {
		return nil, fmt.Errorf("cluster: %s frame cannot carry wire negotiation %q", e.Kind, e.Wire)
	}
	if e.Shards != 0 || e.Shard != 0 || e.Staleness != 0 {
		return nil, fmt.Errorf("cluster: %s frame cannot carry lane or staleness negotiation", e.Kind)
	}
	switch {
	case v2 && e.Kind == MsgGradient:
		if e.Total < 1 {
			return nil, fmt.Errorf("cluster: gradient sub-frame needs a positive total, got %d", e.Total)
		}
	case e.Offset != 0 || e.Total != 0:
		return nil, fmt.Errorf("cluster: %s frame cannot carry sub-frame geometry (%d, %d)", e.Kind, e.Offset, e.Total)
	}
	t := frameTypeOf(e.Kind)
	if t == 0 {
		return nil, fmt.Errorf("cluster: no binary frame type for kind %q", e.Kind)
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

	version, header := frameVersionAndSize(v2)
	off := len(dst)
	need := header + 8*len(vec)
	if cap(dst)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	h := dst[off:]
	h[0], h[1], h[2], h[3] = frameMagic0, frameMagic1, frameMagic2, frameMagic3
	h[4] = version
	h[5] = t
	h[6], h[7] = 0, 0
	putU32(h[8:], uint32(e.Worker))
	putU32(h[12:], uint32(e.Step))
	putU64(h[16:], uint64(e.ComputeStartUnixNano))
	putU64(h[24:], uint64(e.ComputeDurNanos))
	putU32(h[32:], uint32(len(vec)))
	if v2 {
		putU32(h[36:], uint32(e.Offset))
		putU32(h[40:], uint32(e.Total))
	}
	p := h[header:]
	for i, v := range vec {
		putU64(p[8*i:], math.Float64bits(v))
	}
	return dst, nil
}

// frameVersionAndSize returns a flavour's version byte and header size.
func frameVersionAndSize(v2 bool) (version byte, header int) {
	if v2 {
		return frameVersion2, frameHeaderSizeV2
	}
	return frameVersion, frameHeaderSize
}

// EncodeFrame renders one envelope as a standalone binary frame — the
// binary counterpart of EncodeMessage, used by tests, fuzz seeds, and the
// golden vectors.
func EncodeFrame(e *Envelope) ([]byte, error) {
	return AppendFrame(nil, e)
}

// frameHeader is the parsed fixed header of one binary frame; offset and
// total stay zero on binaryv1, whose header has no geometry words.
type frameHeader struct {
	kind          string
	worker, step  int
	computeStart  int64
	computeDur    int64
	dim           int
	offset, total int
}

// parseFrameHeader validates and parses a header of the given flavour (36
// bytes, or 44 for binaryv2). Every rejection is an error, never a panic:
// this parser fronts adversarial bytes and is hammered by FuzzDecodeFrame and
// FuzzDecodeSubFrame.
func parseFrameHeader(h []byte, v2 bool) (frameHeader, error) {
	var fh frameHeader
	version, size := frameVersionAndSize(v2)
	if len(h) < size {
		return fh, fmt.Errorf("cluster: v%d frame header truncated: %d of %d bytes", version, len(h), size)
	}
	if h[0] != frameMagic0 || h[1] != frameMagic1 || h[2] != frameMagic2 || h[3] != frameMagic3 {
		return fh, fmt.Errorf("cluster: bad frame magic % x", h[:4])
	}
	if h[4] != version {
		return fh, fmt.Errorf("cluster: unsupported frame version %d (speak %d)", h[4], version)
	}
	fh.kind = frameKindOf(h[5])
	if fh.kind == "" {
		return fh, fmt.Errorf("cluster: unknown frame type %d", h[5])
	}
	if h[6] != 0 || h[7] != 0 {
		return fh, fmt.Errorf("cluster: nonzero reserved bytes % x in v%d frame", h[6:8], version)
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
	if !v2 {
		return fh, nil
	}
	offset := getU32(h[36:])
	total := getU32(h[40:])
	if offset > maxVectorLen || total > maxVectorLen {
		return fh, fmt.Errorf("cluster: sub-frame geometry (%d, %d) exceeds limit %d", offset, total, maxVectorLen)
	}
	fh.offset = int(offset)
	fh.total = int(total)
	if fh.kind == MsgGradient {
		if fh.total < 1 {
			return fh, fmt.Errorf("cluster: gradient sub-frame with zero total")
		}
		if fh.offset+fh.dim > fh.total {
			return fh, fmt.Errorf("cluster: sub-frame [%d, %d) exceeds total %d", fh.offset, fh.offset+fh.dim, fh.total)
		}
	} else if fh.offset != 0 || fh.total != 0 {
		return fh, fmt.Errorf("cluster: %s frame carries sub-frame geometry (%d, %d)", fh.kind, fh.offset, fh.total)
	}
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
		Offset:               fh.offset,
		Total:                fh.total,
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
// over-limit dims all error; nothing panics. It is the binary counterpart
// of DecodeMessage and the target of FuzzDecodeFrame.
func DecodeFrame(data []byte) (*Envelope, error) {
	return decodeFrame(data, false)
}

func decodeFrame(data []byte, v2 bool) (*Envelope, error) {
	fh, err := parseFrameHeader(data, v2)
	if err != nil {
		return nil, err
	}
	version, header := frameVersionAndSize(v2)
	if want := header + 8*fh.dim; len(data) != want {
		return nil, fmt.Errorf("cluster: v%d frame length %d, want %d for dim %d", version, len(data), want, fh.dim)
	}
	var vec []float64
	if fh.dim > 0 {
		vec = decodePayload(data[header:], make([]float64, fh.dim))
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

// frameBufPool recycles whole-frame send buffers across connections and
// steps, so at steady state the wire path allocates nothing per message
// beyond the gradient vectors whose ownership genuinely transfers to the
// gather loop. A buffer grows to the frames it carries: S lanes streaming a
// dim-sized gradient pool S shard-width buffers, not S dim-sized ones.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// frameCache holds the binary encodings of one outgoing envelope, each
// flavour — binaryv1, or binaryv2 with its wider header — encoded at most
// once into a pooled buffer. A plain send uses one flavour once; a broadcast
// hands the same cache to every connection, so a fleet costs one encode per
// flavour however many workers it has. Not safe for concurrent use.
type frameCache struct {
	e    *Envelope
	bufs [2]*[]byte // binaryv1, binaryv2; nil until that flavour is first needed
	// encodes counts the frames actually encoded — what the encode-once
	// test pins.
	encodes int
}

// frame returns the envelope's encoding in the given flavour, encoding it on
// first use. The bytes stay valid until release.
func (fc *frameCache) frame(v2 bool) ([]byte, error) {
	i := 0
	if v2 {
		i = 1
	}
	if fc.bufs[i] == nil {
		bp := frameBufPool.Get().(*[]byte)
		buf, err := appendFrame((*bp)[:0], fc.e, v2)
		if err != nil {
			frameBufPool.Put(bp)
			return nil, err
		}
		*bp = buf
		fc.bufs[i] = bp
		fc.encodes++
	}
	return *fc.bufs[i], nil
}

// release returns the buffers to the pool and empties the cache.
func (fc *frameCache) release() {
	for i, bp := range fc.bufs {
		if bp != nil {
			*bp = (*bp)[:0]
			frameBufPool.Put(bp)
			fc.bufs[i] = nil
		}
	}
}

// recvFrame reads one binary frame of the connection's flavour. The header
// lands in a per-connection array and the payload bytes in a per-connection
// scratch slice. The decoded vector is freshly allocated unless the
// connection opted into vector reuse (the worker side, where params are
// consumed within the step and never retained) or — binaryv2 gradients only
// — the owner installed the gradReserve hook: the payload then decodes
// straight into the shard assembler's gather buffer at the sub-frame's
// offset, no copy, and a declined reservation (nil destination) drains the
// payload bytes without decoding them, surfacing the envelope with a nil
// Coded for the reader to count and drop.
func (c *conn) recvFrame() (*Envelope, error) {
	_, header := frameVersionAndSize(c.wireV2)
	if _, err := io.ReadFull(c.r, c.hdrScratch[:header]); err != nil {
		return nil, fmt.Errorf("cluster: recv frame header: %w", err)
	}
	fh, err := parseFrameHeader(c.hdrScratch[:header], c.wireV2)
	if err != nil {
		return nil, err
	}
	var vec []float64
	if fh.dim > 0 {
		nbytes := 8 * fh.dim
		if cap(c.payloadScratch) < nbytes {
			c.payloadScratch = make([]byte, nbytes)
		}
		p := c.payloadScratch[:nbytes]
		if _, err := io.ReadFull(c.r, p); err != nil {
			return nil, fmt.Errorf("cluster: recv %s payload (%d words): %w", fh.kind, fh.dim, err)
		}
		switch {
		case fh.kind == MsgGradient && c.gradReserve != nil:
			// Declined: the envelope stays well-formed — a gradient with
			// geometry but no payload — so the reader can account for it.
			if dst := c.gradReserve(fh.worker, fh.step, fh.offset, fh.dim, fh.total); dst != nil {
				vec = decodePayload(p, dst)
			}
		case c.reuseVecs:
			if cap(c.vecScratch) < fh.dim {
				c.vecScratch = make([]float64, fh.dim)
			}
			vec = decodePayload(p, c.vecScratch[:fh.dim])
		default:
			vec = decodePayload(p, make([]float64, fh.dim))
		}
	}
	return frameEnvelope(fh, vec)
}
