// Training-run state snapshots: the payloads the engine, cluster master,
// and cluster worker persist through a Store. Kept as pure data (plus the
// float64↔bytes helpers) so the package stays dependency-free.

package checkpoint

import (
	"encoding/binary"
	"math"
	"slices"
)

// State is one durable snapshot of a training run, taken at a step
// boundary: Step is the next step to execute, Params/Velocity are the
// model state *before* that step. Restoring a State and replaying from
// Step is bit-identical to never having stopped, provided the RNG
// positions below are restored too.
type State struct {
	Version int `json:"version"`
	// RunID identifies the logical run across restarts; a restored master
	// keeps it so traces from both lives can be stitched together.
	RunID string `json:"run_id"`
	// Generation counts master lives: 0 for the first, +1 per restore or
	// failover. Propagated to workers in the hello ack.
	Generation int `json:"generation"`

	// Configuration fingerprint — restore refuses a checkpoint whose
	// scheme shape does not match the configured one.
	Scheme string `json:"scheme"`
	N      int    `json:"n"`
	C      int    `json:"c"`
	Seed   int64  `json:"seed"`
	W      int    `json:"w"`

	// Step is the next step to run (steps [0, Step) are complete).
	Step int `json:"step"`
	// Params and Velocity are little-endian float64 bits — see
	// Float64sToBytes. Velocity is empty when momentum is off.
	Params   []byte `json:"params"`
	Velocity []byte `json:"velocity,omitempty"`
	// LastLoss/LastAccuracy carry the engine's periodic-eval cache so a
	// resumed run records the same values between evals.
	LastLoss     float64 `json:"last_loss"`
	LastAccuracy float64 `json:"last_accuracy"`

	// RNG stream positions (seed + draws), restored via randsrc.
	DecoderSeed   int64  `json:"decoder_seed"`
	DecoderDraws  uint64 `json:"decoder_draws"`
	ProfileSeed   int64  `json:"profile_seed,omitempty"`
	ProfileDraws  uint64 `json:"profile_draws,omitempty"`
	ProfileActive bool   `json:"profile_active,omitempty"`

	// Cursors into append-only observability streams at save time.
	EventCursor  uint64 `json:"event_cursor"`
	RecordCursor int    `json:"record_cursor"`

	// Completed marks a final checkpoint of a finished run; restore-on-
	// start and standby takeover treat it as "nothing left to do".
	Completed       bool  `json:"completed"`
	SavedAtUnixNano int64 `json:"saved_at_unix_nano"`
}

// WorkerState is a worker's durable snapshot: its RNG stream positions and
// progress counter, enough to resume delay/fault sampling bit-identically.
type WorkerState struct {
	Version        int    `json:"version"`
	ID             int    `json:"id"`
	Steps          int64  `json:"steps"`
	DelaySeed      int64  `json:"delay_seed"`
	DelayDraws     uint64 `json:"delay_draws"`
	FaultSeed      int64  `json:"fault_seed"`
	FaultDraws     uint64 `json:"fault_draws"`
	FaultedThrough int    `json:"faulted_through"`
}

// Float64sToBytes encodes xs as little-endian IEEE-754 bits. Used for
// params/velocity so checkpoints are bit-exact by construction (and JSON
// base64-encodes []byte, keeping files compact).
func Float64sToBytes(xs []float64) []byte {
	return AppendFloat64s(make([]byte, 0, 8*len(xs)), xs)
}

// AppendFloat64s appends the Float64sToBytes encoding of xs to dst and
// returns the extended slice; a dst with room is written in place.
func AppendFloat64s(dst []byte, xs []float64) []byte {
	k := len(dst)
	dst = slices.Grow(dst, 8*len(xs))[:k+8*len(xs)]
	out := dst[k:]
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return dst
}

// BytesToFloat64s is the inverse of Float64sToBytes. Trailing bytes that
// do not fill a float64 are ignored.
func BytesToFloat64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
