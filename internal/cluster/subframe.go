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
	return appendFrame(dst, e, true, true)
}

// EncodeSubFrame renders one envelope as a standalone binaryv2 frame — used
// by tests, fuzz seeds, and the golden vectors.
func EncodeSubFrame(e *Envelope) ([]byte, error) {
	return AppendSubFrame(nil, e)
}

// DecodeSubFrame decodes exactly one standalone binaryv2 frame, with the
// same totality guarantees as DecodeFrame: truncation, trailing bytes,
// version skew, and geometry violations all error, nothing panics.
func DecodeSubFrame(data []byte) (*Envelope, error) {
	return decodeFrame(data, true)
}
