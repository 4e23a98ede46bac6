// The binaryv2 sub-frame codec: the binary frame grammar of binary.go with
// a 44-byte header whose two extra fields, offset and total, describe where
// a gradient payload lands inside the full gradient vector. This is what
// lets one step's upload split across S parallel lane connections — each
// lane carries a contiguous (offset, len) slice, and the master's shard
// assembler decodes every payload straight into the gather buffer at its
// offset, with no reassembly copies (see shard.go).
//
// Frame layout (all little-endian):
//
//	offset size field
//	0      4    magic "ISGC"
//	4      1    version (2)
//	5      1    message type (1 hello, 2 step, 3 gradient, 4 heartbeat, 5 stop)
//	6      2    reserved (must be zero)
//	8      4    worker id
//	12     4    step
//	16     8    compute start (unix nanoseconds)
//	24     8    compute duration (nanoseconds)
//	32     4    dim — payload length in float64 words (the length prefix)
//	36     4    offset — first gradient element this payload covers
//	40     4    total — full gradient dimension the sub-frame belongs to
//	44     8·dim payload
//
// The sub-frame geometry is meaningful only on gradient frames: every
// other kind must carry zero offset and total (like the reserved bytes),
// so a whole-vector step broadcast is byte-for-byte the v1 frame plus the
// version bump and eight zero bytes. The encoding stays canonical — one
// valid byte representation per envelope, everything else rejected — and
// FuzzDecodeSubFrame hammers the parser exactly like FuzzDecodeFrame
// hammers v1.
package cluster

import (
	"fmt"
	"io"
	"math"
)

// Binary v2 frame geometry.
const (
	frameVersion2     = 2
	frameHeaderSizeV2 = 44
)

// shardSpans splits a dim-length vector into contiguous, near-equal
// (offset, len) spans, one per lane — the first dim%shards spans are one
// element wider, so the widths differ by at most one. More lanes than
// elements leaves the surplus lanes with zero-width spans, which senders
// skip; the split is pure arithmetic, so both peers and the tests derive
// the same geometry without negotiating it.
func shardSpans(dim, shards int) [][2]int {
	if shards < 1 {
		shards = 1
	}
	spans := make([][2]int, shards)
	base, rem := dim/shards, dim%shards
	off := 0
	for s := range spans {
		w := base
		if s < rem {
			w++
		}
		spans[s] = [2]int{off, w}
		off += w
	}
	return spans
}

// AppendSubFrame appends the canonical binaryv2 encoding of e to dst and
// returns the extended slice. On top of AppendFrame's refusals it enforces
// the sub-frame geometry rules: gradient frames need a positive Total
// covering [Offset, Offset+len(Coded)), every other kind must have both
// zero.
func AppendSubFrame(dst []byte, e *Envelope) ([]byte, error) {
	if err := validateEnvelope(e); err != nil {
		return nil, err
	}
	if e.Wire != "" {
		return nil, fmt.Errorf("cluster: %s frame cannot carry wire negotiation %q", e.Kind, e.Wire)
	}
	if e.Shards != 0 || e.Shard != 0 || e.Staleness != 0 {
		return nil, fmt.Errorf("cluster: %s frame cannot carry lane or staleness negotiation", e.Kind)
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
	if e.Kind == MsgGradient {
		if e.Total < 1 {
			return nil, fmt.Errorf("cluster: gradient sub-frame needs a positive total, got %d", e.Total)
		}
	} else if e.Offset != 0 || e.Total != 0 {
		return nil, fmt.Errorf("cluster: %s frame cannot carry sub-frame geometry (%d, %d)", e.Kind, e.Offset, e.Total)
	}

	off := len(dst)
	need := frameHeaderSizeV2 + 8*len(vec)
	if cap(dst)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	h := dst[off:]
	h[0], h[1], h[2], h[3] = frameMagic0, frameMagic1, frameMagic2, frameMagic3
	h[4] = frameVersion2
	h[5] = t
	h[6], h[7] = 0, 0
	putU32(h[8:], uint32(e.Worker))
	putU32(h[12:], uint32(e.Step))
	putU64(h[16:], uint64(e.ComputeStartUnixNano))
	putU64(h[24:], uint64(e.ComputeDurNanos))
	putU32(h[32:], uint32(len(vec)))
	putU32(h[36:], uint32(e.Offset))
	putU32(h[40:], uint32(e.Total))
	p := h[frameHeaderSizeV2:]
	for i, v := range vec {
		putU64(p[8*i:], math.Float64bits(v))
	}
	return dst, nil
}

// EncodeSubFrame renders one envelope as a standalone binaryv2 frame — used
// by tests, fuzz seeds, and the golden vectors.
func EncodeSubFrame(e *Envelope) ([]byte, error) {
	return AppendSubFrame(nil, e)
}

// frameHeaderV2 is the parsed fixed header of one binaryv2 frame.
type frameHeaderV2 struct {
	frameHeader
	offset, total int
}

// parseFrameHeaderV2 validates and parses a 44-byte v2 header. Every
// rejection is an error, never a panic — this parser fronts adversarial
// bytes and is hammered by FuzzDecodeSubFrame.
func parseFrameHeaderV2(h []byte) (frameHeaderV2, error) {
	var fh frameHeaderV2
	if len(h) < frameHeaderSizeV2 {
		return fh, fmt.Errorf("cluster: v2 frame header truncated: %d of %d bytes", len(h), frameHeaderSizeV2)
	}
	if h[0] != frameMagic0 || h[1] != frameMagic1 || h[2] != frameMagic2 || h[3] != frameMagic3 {
		return fh, fmt.Errorf("cluster: bad frame magic % x", h[:4])
	}
	if h[4] != frameVersion2 {
		return fh, fmt.Errorf("cluster: unsupported frame version %d (speak %d)", h[4], frameVersion2)
	}
	fh.kind = frameKindOf(h[5])
	if fh.kind == "" {
		return fh, fmt.Errorf("cluster: unknown frame type %d", h[5])
	}
	if h[6] != 0 || h[7] != 0 {
		return fh, fmt.Errorf("cluster: nonzero reserved bytes % x in v2 frame", h[6:8])
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

// subFrameEnvelope assembles the envelope a parsed v2 header + payload
// describe and passes it through the shared validation choke point.
func subFrameEnvelope(fh frameHeaderV2, vec []float64) (*Envelope, error) {
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

// DecodeSubFrame decodes exactly one standalone binaryv2 frame, with the
// same totality guarantees as DecodeFrame: truncation, trailing bytes,
// version skew, and geometry violations all error, nothing panics.
func DecodeSubFrame(data []byte) (*Envelope, error) {
	fh, err := parseFrameHeaderV2(data)
	if err != nil {
		return nil, err
	}
	if want := frameHeaderSizeV2 + 8*fh.dim; len(data) != want {
		return nil, fmt.Errorf("cluster: v2 frame length %d, want %d for dim %d", len(data), want, fh.dim)
	}
	var vec []float64
	if fh.dim > 0 {
		vec = decodePayload(data[frameHeaderSizeV2:], make([]float64, fh.dim))
	}
	return subFrameEnvelope(fh, vec)
}

// sendFrameV2 serializes e as a binaryv2 frame into a pooled buffer and
// writes it with a single Write call. Sub-frame sends size the pooled
// buffer by their shard width, not the full gradient dimension — S lanes
// streaming a dim-sized gradient pool S width-sized buffers, not S
// dim-sized ones. Callers hold sendMu.
func (c *conn) sendFrameV2(e *Envelope) error {
	bp := frameBufPool.Get().(*[]byte)
	buf, err := AppendSubFrame((*bp)[:0], e)
	if err != nil {
		frameBufPool.Put(bp)
		return err
	}
	_, werr := c.w.Write(buf)
	*bp = buf[:0]
	frameBufPool.Put(bp)
	return werr
}

// recvFrameV2 reads one binaryv2 frame from the connection. Gradient
// payloads decode through the gradReserve hook when the owner installed
// one — straight into the shard assembler's gather buffer at the
// sub-frame's offset, no copy — and a declined reservation (nil
// destination) drains the payload bytes without decoding them, surfacing
// the envelope with a nil Coded for the reader to count and drop.
func (c *conn) recvFrameV2() (*Envelope, error) {
	if _, err := io.ReadFull(c.r, c.hdrScratch[:frameHeaderSizeV2]); err != nil {
		return nil, fmt.Errorf("cluster: recv frame header: %w", err)
	}
	fh, err := parseFrameHeaderV2(c.hdrScratch[:frameHeaderSizeV2])
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
	if fh.kind == MsgGradient && vec == nil && fh.dim > 0 {
		// Declined reservation: keep the envelope well-formed (a gradient
		// with geometry but no payload) so the reader can account for it.
		e := &Envelope{
			Kind: MsgGradient, Worker: fh.worker, Step: fh.step,
			ComputeStartUnixNano: fh.computeStart, ComputeDurNanos: fh.computeDur,
			Offset: fh.offset, Total: fh.total,
		}
		return e, nil
	}
	return subFrameEnvelope(fh, vec)
}
