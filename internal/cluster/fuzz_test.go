package cluster

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeMessage hammers the gob decode choke point with adversarial
// bytes: whatever arrives on a socket during registration, decoding must
// return an envelope or an error — never panic the master. Seeds are the gob
// traffic that exists — hello proposals (v1; from older workers, v2 with
// lanes and a lane attach; the refused bare and gob ones), hello acks,
// job-gone — plus truncations and flipped bytes of each.
func FuzzDecodeMessage(f *testing.F) {
	seeds := []any{
		&Envelope{Kind: MsgHello, Worker: 3, Wire: WireBinary},
		&legacyEnvelope{Kind: MsgHello, Worker: 2, Step: 17, Wire: "binaryv2", Shards: 4},
		&legacyEnvelope{Kind: MsgHello, Worker: 2, Wire: "binaryv2", Shard: 3, Gen: 1},
		&Envelope{Kind: MsgHello, Worker: 1},
		&Envelope{Kind: MsgHello, Worker: 1, Wire: "gob"},
		&Envelope{Kind: MsgHello, Worker: 3, Wire: WireBinary, Gen: 2, Staleness: 1},
		&legacyEnvelope{Kind: MsgHello, Worker: 2, Wire: "binaryv2", Shards: 4, Gen: 1, Staleness: 2},
		&Envelope{Kind: MsgJobGone},
	}
	for _, e := range seeds {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(e); err != nil {
			f.Fatal(err)
		}
		data := buf.Bytes()
		f.Add(data)
		// Truncations exercise mid-stream EOF handling.
		f.Add(data[:len(data)/2])
		f.Add(data[:1])
		// A flipped byte in the gob type descriptor or value.
		corrupt := append([]byte(nil), data...)
		corrupt[len(corrupt)/2] ^= 0xff
		f.Add(corrupt)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeMessage(data)
		if err != nil {
			return
		}
		// Whatever decodes successfully must satisfy the structural
		// invariants the runtime relies on downstream.
		switch e.Kind {
		case MsgHello, MsgStep, MsgGradient, MsgHeartbeat, MsgStop, MsgJobGone:
		default:
			t.Fatalf("decoded envelope with unvalidated kind %q", e.Kind)
		}
		if e.Worker < 0 || e.Step < 0 {
			t.Fatalf("decoded envelope with negative ids: %+v", e)
		}
		if len(e.Params) > maxVectorLen || len(e.Coded) > maxVectorLen {
			t.Fatalf("decoded envelope exceeding vector cap: params=%d coded=%d", len(e.Params), len(e.Coded))
		}
		if e.ComputeStartUnixNano < 0 || e.ComputeDurNanos < 0 {
			t.Fatalf("decoded envelope with negative compute timing: %+v", e)
		}
		if len(e.Wire) > maxWireNameLen || e.Gen < 0 || e.Staleness < 0 {
			t.Fatalf("decoded envelope with out-of-range negotiation fields: %+v", e)
		}
	})
}

// FuzzDecodeFrame is the binary counterpart of FuzzDecodeMessage: the
// frame parser fronts adversarial bytes on every negotiated connection, so
// whatever arrives must decode to a valid envelope or an error — never a
// panic, and never an envelope violating the structural invariants. The
// corpus is seeded with the golden vectors plus targeted corruptions of
// each rejection path (truncation, magic, version skew, reserved bytes,
// dim overflow).
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
		if e.Wire != "" {
			t.Fatalf("binary frame produced negotiation field %q", e.Wire)
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

func TestDecodeMessageRoundTrip(t *testing.T) {
	want := &Envelope{Kind: MsgHello, Worker: 2, Wire: WireBinary, Gen: 3, Staleness: 1}
	data, err := EncodeMessage(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeMessageRejectsMalformed(t *testing.T) {
	cases := map[string]*Envelope{
		"unknown kind":              {Kind: "pwn"},
		"negative worker":           {Kind: MsgGradient, Worker: -2},
		"negative step":             {Kind: MsgStep, Step: -1},
		"negative compute start":    {Kind: MsgGradient, Worker: 1, ComputeStartUnixNano: -5},
		"negative compute duration": {Kind: MsgGradient, Worker: 1, ComputeDurNanos: -1},
		"negative staleness":        {Kind: MsgHello, Worker: 1, Staleness: -1},
	}
	for name, e := range cases {
		data, err := EncodeMessage(e)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if _, err := DecodeMessage(data); err == nil {
			t.Errorf("%s: DecodeMessage accepted %+v", name, e)
		}
	}
	if _, err := DecodeMessage(nil); err == nil {
		t.Error("DecodeMessage accepted empty input")
	}
	if _, err := DecodeMessage([]byte("garbage that is not gob")); err == nil {
		t.Error("DecodeMessage accepted garbage")
	}
}

// TestRecvRejectsUnknownKind pins that the validation applies on the live
// connection path, not just the standalone DecodeMessage helper.
func TestRecvRejectsUnknownKind(t *testing.T) {
	a, b := pipePair()
	defer a.close()
	defer b.close()
	go func() {
		// send bypasses validation (it trusts our own code); the receiver
		// must not.
		_ = a.send(&Envelope{Kind: "bogus"})
	}()
	if _, err := b.recv(); err == nil || !strings.Contains(err.Error(), "unknown message kind") {
		t.Fatalf("recv must reject unknown kinds, got err=%v", err)
	}
}
