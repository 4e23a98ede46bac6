// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec. VIII), plus micro-benchmarks for the decoders whose linear-time
// complexity the paper proves. Run them all with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks execute a scaled-down experiment per iteration and
// report the headline series values as custom metrics (the full-size
// tables come from cmd/isgc-experiments).
package isgc

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"isgc/internal/bitset"
	"isgc/internal/dataset"
	"isgc/internal/experiments"
	"isgc/internal/gc"
	"isgc/internal/graph"
	core "isgc/internal/isgc"
	"isgc/internal/model"
	"isgc/internal/placement"
)

// --- Figure reproductions -------------------------------------------------

// BenchmarkFig11a regenerates Fig. 11(a): average step time with n=24,
// c=2 and exponential stragglers of mean 1.5 s on 12/24 workers.
func BenchmarkFig11a(b *testing.B) {
	benchFig11(b, experiments.DefaultFig11a())
}

// BenchmarkFig11b regenerates Fig. 11(b): the same with delay mean 3 s.
func BenchmarkFig11b(b *testing.B) {
	benchFig11(b, experiments.DefaultFig11b())
}

func benchFig11(b *testing.B, cfg experiments.Fig11Config) {
	b.Helper()
	cfg.Steps = 100
	var rows []experiments.Fig11Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Fig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Scheme == "Sync-SGD" && r.SlowCount == 12 {
			b.ReportMetric(float64(r.MeanStep)/1e6, "sync-step-ms")
		}
		if r.Scheme == "IS-GC(w=12)" && r.SlowCount == 12 {
			b.ReportMetric(float64(r.MeanStep)/1e6, "isgc-w12-step-ms")
		}
	}
}

// BenchmarkFig12 regenerates all four panels of Fig. 12 (recovery, steps
// to threshold, step time, total time) on the n=4, c=2 training workload.
func BenchmarkFig12(b *testing.B) {
	cfg := experiments.DefaultFig12()
	cfg.Trials = 2
	var rows []experiments.Fig12Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Fig12(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if r := experiments.FindRow(rows, "IS-GC-FR", 2); r != nil {
		b.ReportMetric(r.Recovered, "fr-w2-recovered")
		b.ReportMetric(r.Steps, "fr-w2-steps")
		b.ReportMetric(float64(r.TotalTime)/1e9, "fr-w2-total-s")
	}
	if r := experiments.FindRow(rows, "IS-SGD", 2); r != nil {
		b.ReportMetric(r.Recovered, "issgd-w2-recovered")
		b.ReportMetric(float64(r.TotalTime)/1e9, "issgd-w2-total-s")
	}
}

// BenchmarkFig13 regenerates both panels of Fig. 13: the HR(8, c1, 4-c1)
// recovery trade-off and the w=2 loss curves.
func BenchmarkFig13(b *testing.B) {
	cfg := experiments.DefaultFig13()
	cfg.Trials = 2
	cfg.LossSteps = 60
	var rows []experiments.Fig13Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, _, err = experiments.Fig13(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if r := experiments.FindFig13Row(rows, 0, 2); r != nil {
		b.ReportMetric(r.Recovered, "cr-end-w2-recovered")
	}
	if r := experiments.FindFig13Row(rows, 3, 2); r != nil {
		b.ReportMetric(r.Recovered, "fr-end-w2-recovered")
	}
}

// BenchmarkBounds regenerates the Theorems 10-11 validation table.
func BenchmarkBounds(b *testing.B) {
	cfg := experiments.DefaultBounds()
	cfg.Trials = 60
	var rows []experiments.BoundsRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Bounds(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	ok := 0
	for _, r := range rows {
		if r.WithinBounds {
			ok++
		}
	}
	b.ReportMetric(float64(ok)/float64(len(rows)), "within-bounds-frac")
}

// BenchmarkAblationGatherPolicies regenerates the gather-policy ablation
// (fixed w vs the Sec. IV adaptive-w and deadline policies).
func BenchmarkAblationGatherPolicies(b *testing.B) {
	cfg := experiments.DefaultAblations()
	cfg.Trials = 1
	cfg.MaxSteps = 30
	var rows []experiments.GatherRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.GatherPolicies(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Policy == "fixed w=2" {
			b.ReportMetric(r.Recovered, "w2-recovered")
		}
	}
}

// BenchmarkAblationEnduringStraggler regenerates the Fig. 12(a)-footnote
// ablation (homogeneous vs pinned stragglers).
func BenchmarkAblationEnduringStraggler(b *testing.B) {
	cfg := experiments.DefaultAblations()
	cfg.Trials = 1
	cfg.MaxSteps = 30
	var rows []experiments.EnduringStragglerRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.EnduringStraggler(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) == 3 {
		b.ReportMetric(rows[2].Recovered, "cross-pinned-recovered")
	}
}

// BenchmarkAblationDecoderQuality regenerates the decoder-quality ablation
// (single-start greedy vs the paper's multi-start decoder vs the oracle).
func BenchmarkAblationDecoderQuality(b *testing.B) {
	var rows []experiments.DecoderQualityRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.DecoderQuality(12, 3, 200, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Decoder == "single-start greedy" {
			b.ReportMetric(r.OptimalFraction, "single-start-optimal-frac")
		}
	}
}

// BenchmarkAblationBias regenerates the bias study quantifying the paper's
// Sec. I motivation (IS-SGD biased under an enduring straggler on skewed
// partitions; IS-GC-FR is not).
func BenchmarkAblationBias(b *testing.B) {
	cfg := experiments.DefaultBias()
	cfg.Trials = 1
	cfg.Steps = 60
	var rows []experiments.BiasRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Bias(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Scheme {
		case "IS-SGD":
			b.ReportMetric(r.Partition0Inclusion, "issgd-part0-inclusion")
		case "IS-GC-FR":
			b.ReportMetric(r.Partition0Inclusion, "isgc-part0-inclusion")
		}
	}
}

// --- Decoder micro-benchmarks ----------------------------------------------
// The paper proves Algorithms 1-3 decode in O(|W'|); these benchmarks show
// the measured scaling for each scheme and size.

func randAvailability(rng *rand.Rand, n int, keep float64) *bitset.Set {
	s := bitset.New(n)
	for v := 0; v < n; v++ {
		if rng.Float64() < keep {
			s.Add(v)
		}
	}
	if s.Empty() {
		s.Add(rng.Intn(n))
	}
	return s
}

func benchDecode(b *testing.B, mk func(n int) (*placement.Placement, error), n int) {
	b.Helper()
	p, err := mk(n)
	if err != nil {
		b.Fatal(err)
	}
	s := core.New(p, 1)
	rng := rand.New(rand.NewSource(2))
	avails := make([]*bitset.Set, 64)
	for i := range avails {
		avails[i] = randAvailability(rng, n, 0.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Decode(avails[i%len(avails)])
	}
}

func BenchmarkDecodeFR(b *testing.B) {
	for _, n := range []int{24, 96, 384} {
		b.Run(itoa(n), func(b *testing.B) {
			benchDecode(b, func(n int) (*placement.Placement, error) { return placement.FR(n, 4) }, n)
		})
	}
}

func BenchmarkDecodeCR(b *testing.B) {
	for _, n := range []int{24, 96, 384} {
		b.Run(itoa(n), func(b *testing.B) {
			benchDecode(b, func(n int) (*placement.Placement, error) { return placement.CR(n, 4) }, n)
		})
	}
}

func BenchmarkDecodeHR(b *testing.B) {
	for _, n := range []int{24, 96, 384} {
		b.Run(itoa(n), func(b *testing.B) {
			benchDecode(b, func(n int) (*placement.Placement, error) { return placement.HR(n, 2, 2, n/4) }, n)
		})
	}
}

// BenchmarkDecodeExactOracle shows why the scheme-specific decoders matter:
// the general branch-and-bound MIS oracle on the same instances.
func BenchmarkDecodeExactOracle(b *testing.B) {
	p, err := placement.CR(24, 4)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	avails := make([]*bitset.Set, 16)
	for i := range avails {
		avails[i] = randAvailability(rng, 24, 0.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.MaxIndependentSet(p.ConflictGraph(), avails[i%len(avails)])
	}
}

// BenchmarkClassicGCDecode measures the baseline's decode solve
// (aᵀB_{W'} = 1ᵀ by Gaussian elimination), which IS-GC replaces with the
// independent-set selection.
func BenchmarkClassicGCDecode(b *testing.B) {
	for _, n := range []int{12, 24, 48} {
		b.Run(itoa(n), func(b *testing.B) {
			code, err := gc.NewCR(n, 3, 1)
			if err != nil {
				b.Fatal(err)
			}
			avail := bitset.New(n)
			for v := 0; v < n-2; v++ {
				avail.Add(v)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := code.DecodeCoefficients(avail); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncode measures the worker-side plain-sum encoding for a
// realistic gradient dimension.
func BenchmarkEncode(b *testing.B) {
	p, err := placement.CR(24, 4)
	if err != nil {
		b.Fatal(err)
	}
	s := core.New(p, 1)
	const dim = 4096
	local := make([][]float64, 4)
	rng := rand.New(rand.NewSource(4))
	for j := range local {
		local[j] = make([]float64, dim)
		for k := range local[j] {
			local[j][k] = rng.NormFloat64()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EncodePartial(0, local); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConflictGraphConstruction measures the one-time per-scheme setup
// cost (adjacency bitsets from the placement).
func BenchmarkConflictGraphConstruction(b *testing.B) {
	for _, n := range []int{24, 96, 384} {
		b.Run(itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := placement.CR(n, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return "n=" + string(buf[i:])
}

// --- Gradient-kernel benchmarks --------------------------------------------
// The compute pipeline's hot path: a dim≈2^16 MLP (128 features, 500
// hidden units, 4 classes → 66,504 parameters), per-partition batches of
// 64 samples. Grad is the legacy allocating kernel, GradInto the
// scratch-pooled one, and the Blocked variant splits a larger batch into
// fixed sample blocks over the compute helpers at several core counts.

func benchMLPWorkload(samples int) (model.MLP, []float64, []dataset.Sample) {
	m := model.MLP{Features: 128, Hidden: 500, Classes: 4}
	params := m.InitParams(1)
	rng := rand.New(rand.NewSource(2))
	batch := make([]dataset.Sample, samples)
	for i := range batch {
		x := make([]float64, m.Features)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		batch[i] = dataset.Sample{X: x, Y: float64(rng.Intn(m.Classes))}
	}
	return m, params, batch
}

func BenchmarkMLPGrad(b *testing.B) {
	m, params, batch := benchMLPWorkload(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Grad(params, batch)
	}
}

func BenchmarkMLPGradInto(b *testing.B) {
	m, params, batch := benchMLPWorkload(64)
	dst := make([]float64, m.Dim())
	m.GradInto(dst, params, batch) // warm the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.GradInto(dst, params, batch)
	}
}

// BenchmarkMLPGradIntoBlocked runs the blocked gradient (model.Blocked) on
// a batch of four sample blocks at GOMAXPROCS 1, 2 and 4.
func BenchmarkMLPGradIntoBlocked(b *testing.B) {
	mlp, params, batch := benchMLPWorkload(4 * model.SampleBlock)
	var m model.Model = mlp // converted once: Blocked keeps the model while it runs
	for _, procs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var e model.Blocked
			dst := make([]float64, m.Dim())
			e.GradInto(dst, params, m, batch) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.GradInto(dst, params, m, batch)
			}
		})
	}
}

// BenchmarkDecodeCached measures the memoized decode path on the same
// workload as BenchmarkDecodeCR: 64 recurring masks against a 128-entry
// LRU, i.e. the steady state of a long training run.
func BenchmarkDecodeCached(b *testing.B) {
	for _, n := range []int{24, 96, 384} {
		b.Run(itoa(n), func(b *testing.B) {
			p, err := placement.CR(n, 4)
			if err != nil {
				b.Fatal(err)
			}
			s := core.New(p, 1)
			s.EnableDecodeCache(128)
			rng := rand.New(rand.NewSource(2))
			avails := make([]*bitset.Set, 64)
			for i := range avails {
				avails[i] = randAvailability(rng, n, 0.5)
				s.Decode(avails[i]) // warm the cache
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Decode(avails[i%len(avails)])
			}
		})
	}
}

// BenchmarkStragglerSampling measures the per-step cost of the delay
// simulation at Fig. 11 scale.
func BenchmarkStragglerSampling(b *testing.B) {
	cfg := experiments.DefaultFig11a()
	cfg.Steps = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig11(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
