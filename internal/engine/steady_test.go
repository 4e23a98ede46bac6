package engine

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"isgc/internal/bitset"
	"isgc/internal/checkpoint"
	"isgc/internal/isgc"
	"isgc/internal/placement"
)

// TestStepLoopSteadyStateAllocs pins the step loop's steady state at the
// wide-gather workload's shape, IS-GC CR(8,2) at dimension 131,072: Decode,
// Update and Finish every step, Snapshot and Store.Save every 4th. Once
// warm, nothing the size of the model is allocated per step — ĝ is the
// strategy's, the snapshot bytes the core's and the payload encoding the
// Store's, each rewritten in place. The partition list is the strategy's
// too, but Decode copies it into the step's record, so a StepCore driver
// still allocates one list of up to n ints per step (64 bytes here); the
// list's saving is for callers of Recover that keep nothing. It also checks
// that two Recovers in a row return the same arrays, each time with the bits
// of a fresh Aggregate and Slice of the same decode.
func TestStepLoopSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; counts are not meaningful")
	}
	const n, c, dim, every = 8, 2, 1 << 17, 4
	const maxBytesPerStep = 64 << 10
	p, err := placement.CR(n, c)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewISGC(isgc.New(p, 3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	coded := make([][]float64, n)
	for i := range coded {
		coded[i] = randVec(rng, dim)
	}
	full := bitset.New(n)
	full.AddRange(0, n)

	// Two Recovers in a row, on different masks: the second rewrites the
	// first's arrays and still equals a fresh decode at the same RNG
	// position, aggregated and listed into new memory.
	var prevG []float64
	var prevParts []int
	for _, avail := range []*bitset.Set{full, bitset.FromSlice([]int{1, 2, 4, 5, 6})} {
		seed, draws := st.(RandStateful).RandState()
		fresh := isgc.New(p, seed)
		fresh.RestoreRandState(seed, draws)
		wantG, wantParts, err := fresh.Aggregate(fresh.Decode(avail), coded)
		if err != nil {
			t.Fatal(err)
		}
		g, parts, err := st.Recover(avail, coded)
		if err != nil {
			t.Fatal(err)
		}
		if prevG != nil && (&g[0] != &prevG[0] || &parts[0] != &prevParts[0]) {
			t.Fatal("consecutive Recovers returned new arrays for ĝ or the partition list")
		}
		if !slices.Equal(parts, wantParts.Slice()) {
			t.Fatalf("mask %v: parts %v, a fresh decode lists %v", avail, parts, wantParts.Slice())
		}
		for j := range wantG {
			if math.Float64bits(g[j]) != math.Float64bits(wantG[j]) {
				t.Fatalf("mask %v: ĝ[%d] = %v, a fresh Aggregate gives %v", avail, j, g[j], wantG[j])
			}
		}
		prevG, prevParts = g, parts
	}

	store, err := checkpoint.NewStore(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Strategy: st, LearningRate: 1e-3, MaxSteps: 1 << 20}
	core := NewStepCore(&cfg, randVec(rng, dim))
	step := 0
	var saved checkpoint.Info
	run := func(steps int) {
		for end := step + steps; step < end; step++ {
			dec, err := core.Decode(step, full, coded)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := core.Update(dec)
			if err != nil {
				t.Fatal(err)
			}
			core.Finish(rec)
			if next := step + 1; next%every == 0 {
				cst := core.Snapshot(next, false, time.Unix(0, int64(next)))
				if saved, err = store.Save(next, &cst); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// encoding/json keeps its encode buffer in a sync.Pool, whose cache is
	// per P: a Save on a P that has not saved before builds one of its own
	// (the payload's size, once per P). With one P the first window
	// measures the step loop, not the scheduler's choice of P after each
	// fsync; the second runs at the default GOMAXPROCS, as a master's
	// background writer does, and allows one such build per P on top.
	const steps = 8 * every
	measure := func(warm bool) uint64 {
		if warm {
			run(2 * every) // every buffer reaches its size
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(steps)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	procs := runtime.GOMAXPROCS(1)
	onePerStep := measure(true) / steps
	runtime.GOMAXPROCS(procs)
	if onePerStep >= maxBytesPerStep {
		t.Errorf("the step loop allocated %d bytes per step at dim %d on one P, want < %d", onePerStep, dim, maxBytesPerStep)
	} else {
		t.Logf("%d bytes per step at dim %d on one P", onePerStep, dim)
	}

	// One encode buffer is built by encoding/json's doubling growth, so it
	// allocates under twice its final capacity, itself under twice the
	// payload; the base64 of each byte field is appended once more before
	// it is copied in. Four payloads per P bound a build.
	perBuild := 4 * uint64(saved.Size)
	total := measure(false)
	if limit := steps*maxBytesPerStep + uint64(procs)*perBuild; total >= limit {
		t.Errorf("at GOMAXPROCS %d the step loop allocated %d bytes over %d steps, want < %d (%d per step and one %d-byte encode buffer per P)",
			procs, total, steps, limit, maxBytesPerStep, perBuild)
	} else {
		t.Logf("%d bytes over %d steps at GOMAXPROCS %d", total, steps, procs)
	}
}

func randVec(rng *rand.Rand, dim int) []float64 {
	v := make([]float64, dim)
	for j := range v {
		v[j] = rng.NormFloat64()
	}
	return v
}
