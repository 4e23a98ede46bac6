package cluster

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// goldenSubFrameEnvelopes are the committed binaryv2 wire fixtures: a
// mid-vector gradient sub-frame (the format's reason to exist), a whole-
// vector gradient (offset 0, total = dim — what a single-lane binaryv2
// worker sends), and the geometry-free kinds. Like the v1 fixtures they
// pin the byte layout so an accidental encoding change breaks loudly
// instead of silently splitting mixed-version fleets.
func goldenSubFrameEnvelopes() map[string]*Envelope {
	return map[string]*Envelope{
		"subframe-gradient": {Kind: MsgGradient, Worker: 2, Step: 9,
			Coded:                []float64{0.25, -3, 1e-300, math.Inf(1)},
			ComputeStartUnixNano: 1_700_000_000_000_000_000, ComputeDurNanos: 12_345_678,
			Offset: 3, Total: 16},
		"subframe-gradient-whole": {Kind: MsgGradient, Worker: 1, Step: 4,
			Coded: []float64{1, -0.5}, Total: 2},
		"subframe-step":      {Kind: MsgStep, Step: 5, Params: []float64{0, 1, -2.5, 0.5, math.Pi}},
		"subframe-heartbeat": {Kind: MsgHeartbeat, Worker: 1},
	}
}

// TestGoldenSubFrames pins the binaryv2 encoding to the committed fixtures
// and proves DecodeSubFrame inverts EncodeSubFrame on them.
func TestGoldenSubFrames(t *testing.T) {
	for name, e := range goldenSubFrameEnvelopes() {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			enc, err := EncodeSubFrame(e)
			if err != nil {
				t.Fatal(err)
			}
			if *updateGolden {
				writeGolden(t, name, enc)
			}
			want := readGolden(t, name)
			if !bytes.Equal(enc, want) {
				t.Fatalf("EncodeSubFrame drifted from committed fixture:\n got %x\nwant %x", enc, want)
			}
			got, err := DecodeSubFrame(want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, e) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, e)
			}
		})
	}
}

// TestGoldenSubFrameHeaderBytes spells the 44-byte v2 header out field by
// field — the subframe.go frame diagram asserted byte for byte, including
// the two fields v1 does not have: offset at [36, 40) and total at [40, 44).
func TestGoldenSubFrameHeaderBytes(t *testing.T) {
	data := readGolden(t, "subframe-gradient")
	if len(data) < frameHeaderSizeV2 {
		t.Fatalf("fixture shorter than a v2 header: %d bytes", len(data))
	}
	if string(data[:4]) != "ISGC" {
		t.Errorf("magic = %q", data[:4])
	}
	if data[4] != frameVersion2 {
		t.Errorf("version = %d", data[4])
	}
	if data[5] != frameTypeGradient {
		t.Errorf("type = %d", data[5])
	}
	if data[6] != 0 || data[7] != 0 {
		t.Errorf("reserved = % x", data[6:8])
	}
	if got := getU32(data[8:]); got != 2 {
		t.Errorf("worker = %d", got)
	}
	if got := getU32(data[12:]); got != 9 {
		t.Errorf("step = %d", got)
	}
	if got := int64(getU64(data[16:])); got != 1_700_000_000_000_000_000 {
		t.Errorf("compute start = %d", got)
	}
	if got := int64(getU64(data[24:])); got != 12_345_678 {
		t.Errorf("compute duration = %d", got)
	}
	if got := getU32(data[32:]); got != 4 {
		t.Errorf("dim = %d", got)
	}
	if got := getU32(data[36:]); got != 3 {
		t.Errorf("offset = %d", got)
	}
	if got := getU32(data[40:]); got != 16 {
		t.Errorf("total = %d", got)
	}
	if want := frameHeaderSizeV2 + 8*4; len(data) != want {
		t.Errorf("frame length = %d, want %d", len(data), want)
	}
	if got := math.Float64frombits(getU64(data[frameHeaderSizeV2:])); got != 0.25 {
		t.Errorf("payload[0] = %v", got)
	}
}

// TestSubFrameStepMatchesV1PlusGeometry pins the compatibility claim in the
// subframe.go header comment: a geometry-free v2 frame is byte-for-byte the
// v1 frame with the version bumped and eight zero bytes spliced in before
// the payload.
func TestSubFrameStepMatchesV1PlusGeometry(t *testing.T) {
	e := goldenSubFrameEnvelopes()["subframe-step"]
	v1, err := EncodeFrame(e)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := EncodeSubFrame(e)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), v1[:frameHeaderSize]...)
	want[4] = frameVersion2
	want = append(want, 0, 0, 0, 0, 0, 0, 0, 0)
	want = append(want, v1[frameHeaderSize:]...)
	if !bytes.Equal(v2, want) {
		t.Fatalf("v2 step frame is not v1 + version bump + zero geometry:\n got %x\nwant %x", v2, want)
	}
}

// TestAppendSubFrameRejections: every envelope the v2 format cannot
// represent — or whose geometry the decoder would refuse — must be refused
// at encode time, keeping the encoding canonical.
func TestAppendSubFrameRejections(t *testing.T) {
	cases := map[string]*Envelope{
		"unknown kind":        {Kind: "pwn"},
		"negotiation field":   {Kind: MsgHello, Worker: 1, Wire: WireBinary2},
		"lane count field":    {Kind: MsgHello, Worker: 1, Shards: 2},
		"lane index field":    {Kind: MsgHello, Worker: 1, Shard: 1},
		"staleness field":     {Kind: MsgHello, Worker: 1, Staleness: 2},
		"worker over limit":   {Kind: MsgHeartbeat, Worker: maxFrameID + 1},
		"gradient zero total": {Kind: MsgGradient, Worker: 1, Coded: []float64{1}},
		"geometry on hello":   {Kind: MsgHello, Worker: 1, Total: 4},
		"geometry on step":    {Kind: MsgStep, Params: []float64{1}, Total: 1},
		"offset without total": {Kind: MsgGradient, Worker: 1, Offset: 2,
			Coded: []float64{1}},
		"span exceeds total": {Kind: MsgGradient, Worker: 1, Offset: 3, Total: 4,
			Coded: []float64{1, 1}},
	}
	for name, e := range cases {
		if _, err := AppendSubFrame(nil, e); err == nil {
			t.Errorf("%s: AppendSubFrame accepted %+v", name, e)
		}
	}
}

// TestDecodeSubFrameRejections walks every rejection path of the v2 parser
// with targeted corruptions of a valid frame.
func TestDecodeSubFrameRejections(t *testing.T) {
	valid, err := EncodeSubFrame(goldenSubFrameEnvelopes()["subframe-gradient"])
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(d []byte)) []byte {
		d := append([]byte(nil), valid...)
		f(d)
		return d
	}
	cases := map[string][]byte{
		"empty":             nil,
		"truncated header":  valid[:20],
		"truncated payload": valid[:len(valid)-1],
		"trailing byte":     append(append([]byte(nil), valid...), 0),
		"bad magic":         mutate(func(d []byte) { d[0] ^= 0xff }),
		"v1 version":        mutate(func(d []byte) { d[4] = frameVersion }),
		"future version":    mutate(func(d []byte) { d[4] = frameVersion2 + 1 }),
		"unknown type":      mutate(func(d []byte) { d[5] = 99 }),
		"nonzero reserved":  mutate(func(d []byte) { d[6] = 1 }),
		"dim overflow":      mutate(func(d []byte) { putU32(d[32:], maxVectorLen+1) }),
		"offset overflow":   mutate(func(d []byte) { putU32(d[36:], maxVectorLen+1) }),
		"zero total":        mutate(func(d []byte) { putU32(d[40:], 0) }),
		// offset 3 + dim 4 lands at 7, past a shrunken total of 5.
		"span exceeds total": mutate(func(d []byte) { putU32(d[40:], 5) }),
	}
	for name, data := range cases {
		if e, err := DecodeSubFrame(data); err == nil {
			t.Errorf("%s: DecodeSubFrame accepted the corruption: %+v", name, e)
		}
	}

	step, err := EncodeSubFrame(goldenSubFrameEnvelopes()["subframe-step"])
	if err != nil {
		t.Fatal(err)
	}
	step[36] = 1 // offset = 1 on a step frame
	if e, err := DecodeSubFrame(step); err == nil {
		t.Errorf("geometry on step frame: DecodeSubFrame accepted %+v", e)
	}
}
