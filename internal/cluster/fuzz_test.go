package cluster

import (
	"strings"
	"testing"
)

// FuzzDecodeFrame: the frame parser fronts adversarial bytes on every
// connection from its first byte, so whatever arrives must decode to a valid
// envelope or an error — never a panic, and never an envelope violating the
// structural invariants. The corpus is seeded with the golden vectors (the
// hello, its ack and job-gone among them) plus targeted corruptions of each
// rejection path (truncation, magic, version skew, reserved bytes, dim
// overflow).
func FuzzDecodeFrame(f *testing.F) {
	for _, e := range goldenEnvelopes() {
		data, err := EncodeFrame(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(append(append([]byte(nil), data...), 0))
		corrupt := append([]byte(nil), data...)
		corrupt[len(corrupt)/3] ^= 0xff
		f.Add(corrupt)
	}
	grad, err := EncodeFrame(&Envelope{Kind: MsgGradient, Worker: 1, Step: 2, Coded: []float64{1}})
	if err != nil {
		f.Fatal(err)
	}
	skew := append([]byte(nil), grad...)
	skew[4] = frameVersion + 1
	f.Add(skew)
	overflow := append([]byte(nil), grad...)
	putU32(overflow[32:], maxVectorLen+1)
	f.Add(overflow)
	f.Add([]byte{})
	f.Add([]byte("ISGC"))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if verr := validateEnvelope(e); verr != nil {
			t.Fatalf("decoded envelope fails validation: %v (%+v)", verr, e)
		}
		// Canonical format: whatever decodes must re-encode to the exact
		// input bytes.
		re, err := AppendFrame(nil, e)
		if err != nil {
			t.Fatalf("re-encode of decoded envelope failed: %v (%+v)", err, e)
		}
		if len(re) != len(data) {
			t.Fatalf("re-encode length %d != input length %d", len(re), len(data))
		}
		for i := range re {
			if re[i] != data[i] {
				t.Fatalf("re-encode differs from input at byte %d", i)
			}
		}
	})
}

// TestRecvRejectsUnknownKind pins that the validation applies on the live
// connection path, not just the standalone DecodeFrame helper.
func TestRecvRejectsUnknownKind(t *testing.T) {
	a, b := pipePair()
	defer a.close()
	defer b.close()
	frame, err := EncodeFrame(&Envelope{Kind: MsgHeartbeat, Worker: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame[5] = byte(MsgJobGone) + 1
	go func() {
		// send refuses an unknown kind, so write the bytes directly.
		_, _ = a.raw.Write(frame)
	}()
	if _, err := b.recv(); err == nil || !strings.Contains(err.Error(), "unknown frame type") {
		t.Fatalf("recv must reject unknown kinds, got err=%v", err)
	}
}
