package engine

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"isgc/internal/checkpoint"
	"isgc/internal/dataset"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
)

func ckptConfig(t *testing.T) Config {
	t.Helper()
	p, err := placement.CR(8, 2)
	st := isgcStrategy(t, p, err, 42)
	return Config{
		Strategy:     st,
		Model:        model.SoftmaxRegression{Features: 6, Classes: 3},
		Data:         clusterData(t, 240),
		BatchSize:    8,
		LearningRate: 0.05,
		Momentum:     0.9,
		W:            5,
		MaxSteps:     30,
		Seed:         42,
		Profile:      straggler.NewProfile(8, straggler.Exponential{Mean: 5 * time.Millisecond}, 7),
	}
}

// TestTrainCheckpointResumeEquivalence is the engine-level crash-
// equivalence property: a run interrupted at a checkpoint boundary and
// resumed in a fresh process image produces step records and final params
// bit-identical to an uninterrupted run with the same seed — params,
// momentum velocity, decoder RNG, and straggler RNG all restored exactly.
func TestTrainCheckpointResumeEquivalence(t *testing.T) {
	// Uninterrupted reference run.
	ref, err := Train(ckptConfig(t))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: the first life is stopped at the step-11 boundary
	// (12 steps done), leaving a resumable — not Completed — checkpoint.
	dir := t.TempDir()
	store1, err := checkpoint.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := ckptConfig(t)
	cfg1.Checkpoint = store1
	cfg1.CheckpointEvery = 4
	cfg1.Interrupt = func(step int) bool { return step >= 11 }
	first, err := Train(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Interrupted || first.Run.Steps() != 12 {
		t.Fatalf("first life: interrupted=%v steps=%d, want true/12", first.Interrupted, first.Run.Steps())
	}

	// Second life: fresh strategy/profile objects, restore, run to the end.
	store2, err := checkpoint.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := ckptConfig(t)
	cfg2.Checkpoint = store2
	cfg2.Restore = true
	res, err := Train(cfg2)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := res.Run.Steps(), ref.Run.Steps()-12; got != want {
		t.Fatalf("resumed run recorded %d steps, want %d", got, want)
	}
	for i, rec := range res.Run.Records {
		if !reflect.DeepEqual(rec, ref.Run.Records[12+i]) {
			t.Fatalf("record %d diverged:\nresumed %+v\n    ref %+v", rec.Step, rec, ref.Run.Records[12+i])
		}
	}
	if !reflect.DeepEqual(res.Params, ref.Params) {
		t.Fatal("final params are not bit-identical after resume")
	}
}

// TestTrainRestoreRejectsMismatchedConfig pins the fingerprint check: a
// checkpoint from one (scheme, n, c, seed) or of one parameter dimension
// must not silently seed a different run, and the refusal names the file.
func TestTrainRestoreRejectsMismatchedConfig(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ckptConfig(t)
	cfg.MaxSteps = 4
	cfg.Checkpoint = store
	if _, err := Train(cfg); err != nil {
		t.Fatal(err)
	}

	refused := func(name string, bad Config) {
		t.Helper()
		bad.Checkpoint = store
		bad.Restore = true
		_, err := Train(bad)
		if err == nil {
			t.Fatalf("restore accepted a checkpoint with a mismatched %s", name)
		}
		if !strings.Contains(err.Error(), "ckpt-") {
			t.Fatalf("mismatched %s: error %q does not name the checkpoint file", name, err)
		}
		t.Logf("mismatched %s: %v", name, err)
	}
	seed := ckptConfig(t)
	seed.Seed = 999 // different init/batches
	refused("seed", seed)
	c3 := ckptConfig(t)
	p, err := placement.CR(8, 3) // the same name, IS-GC-CR, for every c
	c3.Strategy = isgcStrategy(t, p, err, 42)
	refused("c", c3)
	wider := ckptConfig(t)
	wider.Model = model.SoftmaxRegression{Features: 6, Classes: 4}
	refused("parameter dimension", wider)

	// A checkpoint whose velocity is not one value per parameter.
	var cst checkpoint.State
	info, err := store.Latest(&cst)
	if err != nil {
		t.Fatal(err)
	}
	cst.Velocity = cst.Velocity[:len(cst.Velocity)-8]
	if _, err := store.Save(info.Step, &cst); err != nil {
		t.Fatal(err)
	}
	refused("velocity length", ckptConfig(t))
}

// TestTrainRestoreCompletedRun asserts a final (Completed) checkpoint
// short-circuits: no steps replay, params come straight from the snapshot.
func TestTrainRestoreCompletedRun(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.NewStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ckptConfig(t)
	cfg.MaxSteps = 6
	cfg.Checkpoint = store
	ref, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}

	again := ckptConfig(t)
	again.MaxSteps = 6
	again.Checkpoint = store
	again.Restore = true
	res, err := Train(again)
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Steps() != 0 {
		t.Fatalf("completed run replayed %d steps", res.Run.Steps())
	}
	if !reflect.DeepEqual(res.Params, ref.Params) {
		t.Fatal("params from completed checkpoint differ from the original run")
	}
}

// TestLoaderSameBatchAfterRestore is the dataset-path half of the rand-
// state satellite: batch selection depends only on (seed, step), so a
// loader rebuilt after restore serves the exact batch the pre-crash loader
// would have served next.
func TestLoaderSameBatchAfterRestore(t *testing.T) {
	data := clusterData(t, 128)
	l1, err := dataset.NewLoader(data, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Consume some steps, as the pre-crash process would.
	for step := 0; step < 10; step++ {
		l1.Samples(step)
	}
	// "Restore": a brand-new loader with the same seed.
	l2, err := dataset.NewLoader(data, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	for step := 10; step < 20; step++ {
		a, b := l1.Samples(step), l2.Samples(step)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: restored loader served a different batch", step)
		}
	}
}
