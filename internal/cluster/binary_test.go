package cluster

import (
	"bytes"
	"encoding/hex"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire fixtures in testdata/")

// goldenEnvelopes are the committed wire fixtures: one envelope per message
// kind, plus the master's hello ack (a master writes 0 in its step slot and
// a worker does not read it; the fixture keeps the nonzero value older
// masters wrote, which must still decode), exercising every header field.
// Changing the frame layout
// changes these bytes, which is exactly the point — the fixtures pin the
// v1 format so an accidental encoding change fails loudly instead of
// silently breaking cross-version clusters.
func goldenEnvelopes() map[string]*Envelope {
	return map[string]*Envelope{
		"hello": {Kind: MsgHello, Worker: 3, Step: 17},
		"ack":   {Kind: MsgHello, Worker: 3, Step: 2},
		"step":  {Kind: MsgStep, Step: 5, Params: []float64{0, 1, -2.5, 0.5, math.Pi}},
		"gradient": {Kind: MsgGradient, Worker: 2, Step: 9,
			Coded:                []float64{0.25, -3, 1e-300, math.Inf(1)},
			ComputeStartUnixNano: 1_700_000_000_000_000_000, ComputeDurNanos: 12_345_678},
		"heartbeat": {Kind: MsgHeartbeat, Worker: 1},
		"stop":      {Kind: MsgStop},
		"job_gone":  {Kind: MsgJobGone},
	}
}

// goldenPath returns the fixture file for one message type.
func goldenPath(name string) string {
	return filepath.Join("testdata", name+".hex")
}

// readGolden loads and decodes a hex fixture (whitespace is ignored, so the
// files can be wrapped for readability).
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("read fixture (run with -update to generate): %v", err)
	}
	data, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatalf("fixture %s is not hex: %v", name, err)
	}
	return data
}

// writeGolden renders frame bytes as wrapped hex.
func writeGolden(t *testing.T, name string, data []byte) {
	t.Helper()
	h := hex.EncodeToString(data)
	var b strings.Builder
	for i := 0; i < len(h); i += 64 {
		end := i + 64
		if end > len(h) {
			end = len(h)
		}
		b.WriteString(h[i:end])
		b.WriteByte('\n')
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(name), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenFrames pins the binary encoding of every message type to the
// committed fixtures and proves DecodeFrame inverts EncodeFrame on them.
func TestGoldenFrames(t *testing.T) {
	for name, e := range goldenEnvelopes() {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			enc, err := EncodeFrame(e)
			if err != nil {
				t.Fatal(err)
			}
			if *updateGolden {
				writeGolden(t, name, enc)
			}
			want := readGolden(t, name)
			if !bytes.Equal(enc, want) {
				t.Fatalf("EncodeFrame drifted from committed fixture:\n got %x\nwant %x", enc, want)
			}
			got, err := DecodeFrame(want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, e) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, e)
			}
		})
	}
}

// TestGoldenFrameHeaderBytes spells the v1 header out field by field for one
// fixture so a layout regression is diagnosable from the failure message
// alone (the DESIGN.md frame diagram is asserted here, byte for byte).
func TestGoldenFrameHeaderBytes(t *testing.T) {
	data := readGolden(t, "gradient")
	if len(data) < frameHeaderSize {
		t.Fatalf("fixture shorter than a header: %d bytes", len(data))
	}
	if string(data[:4]) != "ISGC" {
		t.Errorf("magic = %q", data[:4])
	}
	if data[4] != frameVersion {
		t.Errorf("version = %d", data[4])
	}
	if MsgKind(data[5]) != MsgGradient {
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
	if want := frameHeaderSize + 8*4; len(data) != want {
		t.Errorf("frame length = %d, want %d", len(data), want)
	}
	if got := math.Float64frombits(getU64(data[frameHeaderSize:])); got != 0.25 {
		t.Errorf("payload[0] = %v", got)
	}
}

// TestAppendFrameRejections: envelopes the frame format cannot represent
// must be refused at encode time, not silently mangled.
func TestAppendFrameRejections(t *testing.T) {
	cases := map[string]*Envelope{
		"unknown kind":          {Kind: MsgJobGone + 1},
		"zero kind":             {},
		"worker over limit":     {Kind: MsgHeartbeat, Worker: maxFrameID + 1},
		"step over limit":       {Kind: MsgStep, Step: maxFrameID + 1},
		"payload on hello":      {Kind: MsgHello, Params: []float64{1}},
		"payload on heartbeat":  {Kind: MsgHeartbeat, Coded: []float64{1}},
		"payload on job gone":   {Kind: MsgJobGone, Params: []float64{1}},
		"params on gradient":    {Kind: MsgGradient, Worker: 1, Params: []float64{1}},
		"coded on step":         {Kind: MsgStep, Coded: []float64{1}},
		"negative worker":       {Kind: MsgGradient, Worker: -1},
		"negative compute time": {Kind: MsgGradient, Worker: 1, ComputeDurNanos: -1},
	}
	for name, e := range cases {
		if _, err := EncodeFrame(e); err == nil {
			t.Errorf("%s: EncodeFrame accepted %+v", name, e)
		}
	}
}

// TestDecodeFrameRejections: every malformed byte-level mutation of a valid
// frame must produce an error (and, per FuzzDecodeFrame, never a panic).
func TestDecodeFrameRejections(t *testing.T) {
	valid, err := EncodeFrame(&Envelope{Kind: MsgGradient, Worker: 1, Step: 2, Coded: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(off int, b byte) []byte {
		out := append([]byte(nil), valid...)
		out[off] = b
		return out
	}
	cases := map[string][]byte{
		"empty":             {},
		"truncated header":  valid[:frameHeaderSize-1],
		"truncated payload": valid[:len(valid)-1],
		"trailing bytes":    append(append([]byte(nil), valid...), 0),
		"bad magic":         mutate(0, 'X'),
		"version skew":      mutate(4, frameVersion+1),
		"unknown type":      mutate(5, 99),
		"reserved nonzero":  mutate(6, 1),
		"payload on stop": func() []byte {
			stop, _ := EncodeFrame(&Envelope{Kind: MsgStop})
			stop = append(stop, make([]byte, 8)...)
			putU32(stop[32:], 1)
			return stop
		}(),
		"dim overflow": func() []byte {
			out := append([]byte(nil), valid...)
			putU32(out[32:], maxVectorLen+1)
			return out
		}(),
		"worker over limit": func() []byte {
			out := append([]byte(nil), valid...)
			putU32(out[8:], maxFrameID+1)
			return out
		}(),
	}
	for name, data := range cases {
		if _, err := DecodeFrame(data); err == nil {
			t.Errorf("%s: DecodeFrame accepted % x", name, data)
		}
	}
	if _, err := DecodeFrame(valid); err != nil {
		t.Fatalf("control: valid frame rejected: %v", err)
	}
}

// TestDecodeFrameCanonical: decode followed by re-encode reproduces the
// input byte for byte — the format has exactly one representation per
// envelope, so fixtures and fuzz corpora cannot drift.
func TestDecodeFrameCanonical(t *testing.T) {
	for name, e := range goldenEnvelopes() {
		enc, err := EncodeFrame(e)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeFrame(enc)
		if err != nil {
			t.Fatal(err)
		}
		re, err := EncodeFrame(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, re) {
			t.Errorf("%s: re-encode differs:\n  in %x\n out %x", name, enc, re)
		}
	}
}
