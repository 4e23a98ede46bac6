package cluster

import (
	"reflect"
	"testing"
)

func TestShardSpans(t *testing.T) {
	cases := []struct {
		dim, shards int
		want        [][2]int
	}{
		{10, 4, [][2]int{{0, 3}, {3, 3}, {6, 2}, {8, 2}}},
		{8, 1, [][2]int{{0, 8}}},
		// More lanes than elements: the surplus lanes get zero-width spans.
		{2, 4, [][2]int{{0, 1}, {1, 1}, {2, 0}, {2, 0}}},
		// A non-positive lane count is clamped to one lane.
		{5, 0, [][2]int{{0, 5}}},
	}
	for _, c := range cases {
		if got := shardSpans(c.dim, c.shards); !reflect.DeepEqual(got, c.want) {
			t.Errorf("shardSpans(%d, %d) = %v, want %v", c.dim, c.shards, got, c.want)
		}
	}

	// Property check across shapes: spans are contiguous from zero, cover
	// the vector exactly, and widths differ by at most one.
	for _, dim := range []int{1, 7, 16, 65} {
		for shards := 1; shards <= 6; shards++ {
			spans := shardSpans(dim, shards)
			if len(spans) != shards {
				t.Fatalf("shardSpans(%d, %d): %d spans", dim, shards, len(spans))
			}
			off, min, max := 0, dim, 0
			for _, sp := range spans {
				if sp[0] != off {
					t.Fatalf("shardSpans(%d, %d): span %v not contiguous at %d", dim, shards, sp, off)
				}
				off += sp[1]
				if sp[1] < min {
					min = sp[1]
				}
				if sp[1] > max {
					max = sp[1]
				}
			}
			if off != dim {
				t.Fatalf("shardSpans(%d, %d): spans cover %d elements", dim, shards, off)
			}
			if max-min > 1 {
				t.Fatalf("shardSpans(%d, %d): widths range [%d, %d]", dim, shards, min, max)
			}
		}
	}
}

func TestGrantShards(t *testing.T) {
	cases := []struct{ proposed, cap, want int }{
		{0, 0, 1},  // no proposal: one lane
		{-3, 0, 1}, // nonsense clamps up
		{1, 0, 1},  // single-lane stays single-lane
		{4, 0, 4},  // cap 0: grant up to the protocol max
		{maxGatherShards + 5, 0, maxGatherShards},
		{4, 2, 2}, // cap below the proposal wins
		{2, 8, 2}, // cap above the proposal is a no-op
		{4, 1, 1}, // cap 1: down-negotiate to an unsharded lane
		{maxGatherShards + 5, maxGatherShards + 9, maxGatherShards},
	}
	for _, c := range cases {
		if got := grantShards(c.proposed, c.cap); got != c.want {
			t.Errorf("grantShards(%d, %d) = %d, want %d", c.proposed, c.cap, got, c.want)
		}
	}
}

// span is the header of a gradient sub-frame covering [offset, offset+count)
// of a total-long vector.
func span(worker, step, offset, count, total int) frameHeader {
	return frameHeader{kind: MsgGradient, worker: worker, step: step, offset: offset, dim: count, total: total}
}

func newTestAssembler(dim, window int, rejects *int) *shardAssembler {
	return &shardAssembler{window: window, newest: -1, steps: make(map[int]*shardBuf),
		vecs:     &vecPool{dim: dim, free: make(chan []float64, 2)},
		onReject: func(step, offset, count, total int) { *rejects++ }}
}

// TestShardAssemblerReassemblesSpans drives the reserve/commit sequence
// recvFrame runs: the reserved slices alias the step's gather buffer
// (zero-copy), and the completed vector surfaces exactly once, with the
// last committed span.
func TestShardAssemblerReassemblesSpans(t *testing.T) {
	rejects := 0
	a := newTestAssembler(6, 3, &rejects)

	lo := a.reserve(span(99, 7, 0, 3, 6)) // claimed worker id is ignored
	if len(lo) != 3 {
		t.Fatalf("first reserve returned %d elements, want 3", len(lo))
	}
	copy(lo, []float64{1, 2, 3})
	if _, done := a.commit(&Envelope{Kind: MsgGradient, Step: 7, Total: 6, Coded: lo}); done {
		t.Fatal("half-assembled step reported done")
	}

	hi := a.reserve(span(0, 7, 3, 3, 6))
	if len(hi) != 3 {
		t.Fatalf("second reserve returned %d elements, want 3", len(hi))
	}
	copy(hi, []float64{4, 5, 6})
	vec, done := a.commit(&Envelope{Kind: MsgGradient, Step: 7, Total: 6, Coded: hi})
	if !done {
		t.Fatal("fully assembled step not reported done")
	}
	if want := []float64{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(vec, want) {
		t.Fatalf("assembled vector %v, want %v", vec, want)
	}
	if &vec[0] != &lo[0] {
		t.Fatal("assembled vector is a copy; spans must decode into the gather buffer")
	}
	if len(a.steps) != 0 {
		t.Fatalf("completed step still tracked: %d in-flight", len(a.steps))
	}
	if rejects != 0 {
		t.Fatalf("clean reassembly counted %d rejects", rejects)
	}
}

// TestShardAssemblerRejectsBadGeometry: overlapping spans, a total that
// disagrees with the step's buffer, and out-of-range spans all decline the
// reservation (nil — the payload is drained, not decoded) and count a
// protocol violation.
func TestShardAssemblerRejectsBadGeometry(t *testing.T) {
	rejects := 0
	a := newTestAssembler(8, 3, &rejects)

	if got := a.reserve(span(0, 1, 0, 4, 8)); len(got) != 4 {
		t.Fatalf("seed reserve returned %d elements", len(got))
	}
	if a.reserve(span(0, 1, 2, 4, 8)) != nil {
		t.Error("overlapping span was not declined")
	}
	if a.reserve(span(0, 1, 4, 2, 9)) != nil {
		t.Error("total mismatch was not declined")
	}
	if a.reserve(span(0, 1, 6, 4, 8)) != nil {
		t.Error("out-of-range span was not declined")
	}
	if rejects != 3 {
		t.Errorf("counted %d rejects, want 3", rejects)
	}

	// Commits for steps the assembler is not tracking, or with a total that
	// disagrees with the tracked buffer, report not-done without state damage.
	if _, done := a.commit(&Envelope{Kind: MsgGradient, Step: 42, Total: 8, Coded: []float64{1}}); done {
		t.Error("commit for an unknown step reported done")
	}
	if _, done := a.commit(&Envelope{Kind: MsgGradient, Step: 1, Total: 9, Coded: []float64{1}}); done {
		t.Error("commit with a mismatched total reported done")
	}
}

// TestShardAssemblerEvictsStaleSteps: a step whose missing spans never
// arrive falls out of the in-flight window when newer steps register, and
// a late commit for it lands harmlessly as not-done.
func TestShardAssemblerEvictsStaleSteps(t *testing.T) {
	rejects := 0
	a := newTestAssembler(4, 3, &rejects)

	stale := a.reserve(span(0, 0, 0, 2, 4)) // partial: step 0 never completes
	if len(stale) != 2 {
		t.Fatalf("partial reserve returned %d elements", len(stale))
	}
	for step := 1; step <= 3; step++ {
		if got := a.reserve(span(0, step, 0, 4, 4)); len(got) != 4 {
			t.Fatalf("step %d reserve returned %d elements", step, len(got))
		}
	}
	if _, tracked := a.steps[0]; tracked {
		t.Fatal("step 0 survived past the in-flight window")
	}
	if len(a.steps) != 3 {
		t.Fatalf("%d steps in flight, want 3", len(a.steps))
	}
	if _, done := a.commit(&Envelope{Kind: MsgGradient, Step: 0, Total: 4, Coded: stale}); done {
		t.Fatal("commit for an evicted step reported done")
	}
	if rejects != 0 {
		t.Fatalf("window eviction counted %d rejects; it is not a protocol violation", rejects)
	}
}
