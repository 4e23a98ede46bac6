package engine

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"

	"isgc/internal/linalg/kerneltest"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
)

// runDigest is FNV-1a over the bits of everything a run decides: the final
// parameters and every StepRecord field except Elapsed (simulated time is
// pinned through Available, which it determines).
func runDigest(res *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, p := range res.Params {
		put(math.Float64bits(p))
	}
	for _, r := range res.Run.Records {
		put(uint64(r.Step))
		put(uint64(r.Available))
		put(uint64(r.Chosen))
		put(math.Float64bits(r.RecoveredFraction))
		put(uint64(len(r.Partitions)))
		for _, d := range r.Partitions {
			put(uint64(d))
		}
		put(uint64(r.Alive))
		if r.Degraded {
			put(1)
		} else {
			put(0)
		}
		put(0) // was the late-fold count, always 0 now: the pins hold unchanged
		put(math.Float64bits(r.Loss))
		put(math.Float64bits(r.Accuracy))
	}
	return h.Sum64()
}

// goldenConfig is the shared workload of the digest pins: 8 workers under
// homogeneous exponential straggling, waiting for 5.
func goldenConfig(t *testing.T, scheme string) Config {
	t.Helper()
	var st Strategy
	var err error
	switch scheme {
	case "IS-SGD":
		st, err = NewISSGD(8)
		if err != nil {
			t.Fatal(err)
		}
	case "IS-GC-CR":
		p, perr := placement.CR(8, 2)
		st = isgcStrategy(t, p, perr, 42)
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}
	cfg := baseConfig(t, st)
	cfg.W = 5
	cfg.MaxSteps = 40
	cfg.ComputePerPartition = 2 * time.Millisecond
	cfg.Upload = time.Millisecond
	cfg.Profile = straggler.NewProfile(8, straggler.Exponential{Mean: 5 * time.Millisecond}, 7)
	return cfg
}

// TestGoldenStepLoopDigests pins the engine's plain-SGD, learning-rate
// schedule and momentum/weight-decay trajectories bit for bit. The plain and
// lr-decay constants were captured at the last commit that could still fold
// late gradients in, with folding off; the others at the commit before
// the step loops were merged into one core. A refactor of the step loop must
// leave them unchanged — and so must the model kernels under it, so every
// configuration trains once per kernel path the host has (portable Go loops,
// AVX2 and AVX-512 assembly) against the same constant. IS-GC-CR/mlp is the
// one trajectory through tanh; its constant was captured with one math.Tanh
// call per activation, before the lane-wide tanh (now linalg.TanhBias8) and
// before the model's grouped passes went from four samples to eight, and it
// holds through both. Floating-point contraction differs across
// architectures, so the pins hold on amd64 (and, through math.Exp's two paths
// there, on a CPU with AVX and FMA).
func TestGoldenStepLoopDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests were captured on amd64, running on %s", runtime.GOARCH)
	}
	decay := func(step int) float64 { return 1 / (1 + 0.05*float64(step)) }
	golden := map[string]uint64{
		"IS-SGD":                        0xad6c908f64a80311,
		"IS-SGD/lr-decay":               0x93aacc9f8f56a379,
		"IS-GC-CR":                      0x99c4329fd91a78ed,
		"IS-GC-CR/lr-decay":             0x84fbfaa8d08bf721,
		"IS-GC-CR/momentum+wd":          0xca2054cbd8ba0c27,
		"IS-GC-CR/momentum+wd/deadline": 0x10657444ca0c3578,
		"IS-GC-CR/mlp":                  0x2a7cc399fea86b3b,
	}
	// build makes the configuration afresh for each run: a strategy and a
	// straggler profile carry random state a previous Train has advanced.
	check := func(name string, build func() Config) {
		t.Run(name, func(t *testing.T) {
			kerneltest.EachPath(t, func(path string) {
				res, err := Train(build())
				if err != nil {
					t.Fatal(err)
				}
				if got := runDigest(res); got != golden[name] {
					t.Fatalf("%s kernels: digest %#016x, want %#016x", path, got, golden[name])
				}
			})
		})
	}
	for _, scheme := range []string{"IS-SGD", "IS-GC-CR"} {
		check(scheme, func() Config { return goldenConfig(t, scheme) })
		check(scheme+"/lr-decay", func() Config {
			cfg := goldenConfig(t, scheme)
			cfg.LRSchedule = decay
			return cfg
		})
	}
	momentum := func(deadline time.Duration) func() Config {
		return func() Config {
			cfg := goldenConfig(t, "IS-GC-CR")
			cfg.Momentum, cfg.WeightDecay = 0.9, 1e-3
			cfg.LearningRate = 0.05
			if deadline > 0 {
				cfg.LRSchedule = decay
				cfg.Deadline = deadline
			}
			return cfg
		}
	}
	check("IS-GC-CR/momentum+wd", momentum(0))
	check("IS-GC-CR/momentum+wd/deadline", momentum(6*time.Millisecond))
	check("IS-GC-CR/mlp", func() Config {
		cfg := goldenConfig(t, "IS-GC-CR")
		cfg.Model = model.MLP{Features: 6, Hidden: 8, Classes: 3}
		return cfg
	})
}
