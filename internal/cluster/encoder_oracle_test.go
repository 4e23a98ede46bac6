package cluster

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The encoders' loop bodies as they stood before linalg.SumInto and the
// write-first first term replaced them, moved here verbatim (validation
// dropped): zero the output, then accumulate every gradient. They are the
// oracle TestEncodersMatchZeroThenAccumulate compares against and exist
// nowhere outside this file.

func refSumEncode(local [][]float64) []float64 {
	out := make([]float64, len(local[0]))
	for k := range out {
		out[k] = 0
	}
	for _, g := range local {
		for k, x := range g {
			out[k] += x
		}
	}
	return out
}

func refLinearEncode(cs []float64, local [][]float64) []float64 {
	out := make([]float64, len(local[0]))
	for k := range out {
		out[k] = 0
	}
	for j, g := range local {
		for k, x := range g {
			out[k] += cs[j] * x
		}
	}
	return out
}

// encoderVec mixes magnitudes 1e16, 1 and −1e16 (so any reassociated sum
// moves a bit) with signed zeros (so a first term stored without its 0 +
// keeps a −0 the accumulator never produced).
func encoderVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * [...]float64{1e16, 1, -1e16, 0, math.Copysign(0, -1)}[rng.Intn(5)]
	}
	return v
}

// TestEncodersMatchZeroThenAccumulate: SumEncoder and LinearEncoder give the
// bits of the loops they replaced for c ∈ {1, 2, 3, 5}, on a reused output
// buffer holding the previous call's result.
func TestEncodersMatchZeroThenAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, c := range []int{1, 2, 3, 5} {
		cs := encoderVec(rng, c)
		sum, lin := SumEncoder(), LinearEncoder(cs)
		for call := 0; call < 3; call++ {
			local := make([][]float64, c)
			for j := range local {
				local[j] = encoderVec(rng, 67)
			}
			for name, pair := range map[string]struct {
				enc  func([][]float64) ([]float64, error)
				want []float64
			}{
				"SumEncoder":    {sum, refSumEncode(local)},
				"LinearEncoder": {lin, refLinearEncode(cs, local)},
			} {
				got, err := pair.enc(local)
				if err != nil {
					t.Fatalf("%s c=%d: %v", name, c, err)
				}
				for k := range pair.want {
					if math.Float64bits(got[k]) != math.Float64bits(pair.want[k]) {
						t.Fatalf("%s c=%d call %d: out[%d] = %v, zero-then-accumulate gives %v", name, c, call, k, got[k], pair.want[k])
					}
				}
			}
		}
	}
}

// TestEncodersRejectBadInput: both encoders refuse an empty or ragged
// gradient list with the same errors — LinearEncoder(nil) used to index
// local[0] of an empty list — and accept a single gradient.
func TestEncodersRejectBadInput(t *testing.T) {
	for _, tc := range []struct {
		name    string
		local   [][]float64
		wantErr string // "" = success
	}{
		{"nil", nil, "no local gradients"},
		{"empty", [][]float64{}, "no local gradients"},
		{"ragged", [][]float64{{1, 2}, {3}}, "gradient dim mismatch"},
		{"single", [][]float64{{1, -2}}, ""},
	} {
		for name, enc := range map[string]func([][]float64) ([]float64, error){
			"SumEncoder":    SumEncoder(),
			"LinearEncoder": LinearEncoder(make([]float64, len(tc.local))),
		} {
			out, err := enc(tc.local)
			switch {
			case tc.wantErr == "" && (err != nil || len(out) != 2):
				t.Errorf("%s(%s) = %v, %v; want a 2-vector", name, tc.name, out, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("%s(%s): err = %v, want %q", name, tc.name, err, tc.wantErr)
			}
		}
	}
}
