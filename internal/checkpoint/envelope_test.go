package checkpoint

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// oldEnvelope is the envelope as Save marshalled it before the splice: one
// flat struct whose RawMessage payload the encoder re-validated and
// re-compacted. The written file must still be exactly these bytes.
type oldEnvelope struct {
	Version         int             `json:"version"`
	Step            int             `json:"step"`
	SavedAtUnixNano int64           `json:"saved_at_unix_nano"`
	CRC32           uint32          `json:"crc32"`
	Payload         json.RawMessage `json:"payload"`
}

func stateWithParams(n int) *State {
	params := make([]float64, n)
	for i := range params {
		params[i] = math.Sin(float64(i)) * 1e-3
	}
	return &State{Version: 1, RunID: "run-<1>&", Scheme: "cr", N: 8, C: 2, Seed: 7, W: 8, Step: 5,
		Params: Float64sToBytes(params), Velocity: Float64sToBytes(params[:n/2]), LastLoss: 0.125}
}

// TestEnvelopeSpliceByteIdentical: for every kind of payload the runtime
// saves (and one with every character json.Marshal escapes), the file Save
// writes equals the old double marshal byte for byte, its CRC covers exactly
// the payload bytes, and Latest reads it back.
func TestEnvelopeSpliceByteIdentical(t *testing.T) {
	type texty struct {
		S string            `json:"s"`
		M map[string]string `json:"m"`
	}
	for _, tc := range []struct {
		name    string
		payload any
		into    any
	}{
		{"state-1Ki", stateWithParams(1 << 10), &State{}},
		{"state-128Ki", stateWithParams(1 << 17), &State{}},
		{"worker-state", &WorkerState{Version: 1, ID: 3, Steps: 99, DelaySeed: -4, DelayDraws: 1 << 40}, &WorkerState{}},
		{"worker-state-drop", &WorkerState{Version: 1, ID: 3, Steps: 99, FaultedThrough: 98, FaultedAction: 1}, &WorkerState{}},
		{"escapes", &texty{S: "<b>&amp;</b> \u2028\u2029 \"q\" \\ \x00 é", M: map[string]string{"<k>": "&"}}, &texty{}},
		{"null", nil, new(any)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestStore(t, 0)
			info, err := s.Save(5, tc.payload)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(s.Dir(), info.File))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(tc.payload)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(oldEnvelope{
				Version:         Version,
				Step:            5,
				SavedAtUnixNano: info.SavedAt.UnixNano(),
				CRC32:           crc32.ChecksumIEEE(raw),
				Payload:         raw,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("file differs from json.Marshal(envelope): %d bytes vs %d; head %q vs %q", len(got), len(want), got[:min(len(got), 120)], want[:min(len(want), 120)])
			}
			if info.Size != int64(len(want)) {
				t.Errorf("Info.Size = %d, file has %d bytes", info.Size, len(want))
			}
			if _, err := s.Latest(tc.into); err != nil {
				t.Fatalf("Latest: %v", err)
			}
			if tc.payload != nil && !reflect.DeepEqual(tc.into, tc.payload) {
				t.Errorf("round trip = %+v, want %+v", tc.into, tc.payload)
			}
		})
	}
}

// TestSaveReusesItsBuffer: one Store saving a large payload, then smaller
// ones, then the large one again writes each file as a fresh Store would —
// nothing of an earlier payload survives in the buffer Save encodes into.
func TestSaveReusesItsBuffer(t *testing.T) {
	reused := newTestStore(t, 10)
	for i, payload := range []any{stateWithParams(1 << 12), stateWithParams(8), nil, stateWithParams(1 << 12)} {
		step := i + 1
		info, err := reused.Save(step, payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(reused.Dir(), info.File))
		if err != nil {
			t.Fatal(err)
		}
		fresh := newTestStore(t, 0)
		finfo, err := fresh.Save(step, payload)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(fresh.Dir(), finfo.File))
		if err != nil {
			t.Fatal(err)
		}
		// The two files differ only in saved_at_unix_nano.
		stamp := func(b []byte, at int64) []byte {
			return bytes.Replace(b, []byte(strconv.FormatInt(at, 10)), []byte("T"), 1)
		}
		if !bytes.Equal(stamp(got, info.SavedAt.UnixNano()), stamp(want, finfo.SavedAt.UnixNano())) {
			t.Fatalf("save %d: %d bytes from a reused Store, %d from a fresh one", step, len(got), len(want))
		}
		if info.Size != int64(len(got)) {
			t.Errorf("save %d: Info.Size = %d, file has %d bytes", step, info.Size, len(got))
		}
	}
}

// TestAppendFloat64s: appending after a prefix keeps the prefix and encodes
// as Float64sToBytes does; a dst with room is written in place.
func TestAppendFloat64s(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64}
	want := Float64sToBytes(xs)
	if len(want) != 8*len(xs) || cap(want) != len(want) {
		t.Fatalf("Float64sToBytes: len %d cap %d, want %d", len(want), cap(want), 8*len(xs))
	}
	got := AppendFloat64s([]byte{0xAB}, xs)
	if got[0] != 0xAB || !bytes.Equal(got[1:], want) {
		t.Fatalf("AppendFloat64s after a prefix = %x, want ab%x", got, want)
	}
	buf := make([]byte, 0, len(want))
	if got := AppendFloat64s(buf, xs); &got[0] != &buf[:1][0] || !bytes.Equal(got, want) {
		t.Fatal("AppendFloat64s into a slice with room did not write in place")
	}
	back := BytesToFloat64s(want)
	for i := range xs {
		if math.Float64bits(back[i]) != math.Float64bits(xs[i]) {
			t.Fatalf("round trip of %v gave %v", xs[i], back[i])
		}
	}
}
