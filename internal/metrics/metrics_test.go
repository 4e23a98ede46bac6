package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("requests_total", "Total requests.")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value() = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.NewGauge("temperature", "Current temperature.")
	g.Set(1.5)
	g.Add(-0.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("Value() = %v, want 1", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count() = %d, want 5", got)
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+5+50; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Sum() = %v, want %v", got, want)
	}
	// Cumulative bucket counts: le=0.1 → 2 (0.05, 0.1 inclusive),
	// le=1 → 3, le=10 → 4, +Inf → 5.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`latency_seconds_bucket{le="0.1"} 2`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		`latency_seconds_count 5`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestHistogramExplicitInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "", []float64{1, math.Inf(1)})
	h.Observe(2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), `le="+Inf"`); got != 1 {
		t.Fatalf("want exactly one +Inf bucket, got %d:\n%s", got, b.String())
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 3.0
	r.NewGaugeFunc("live_value", "Computed at scrape.", func() float64 { return v })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "live_value 3\n") {
		t.Fatalf("missing gauge func sample:\n%s", b.String())
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("grads_total", "Accepted gradients.", "worker")
	cv.With("1").Add(3)
	cv.With("0").Inc()
	cv.With("1").Inc() // same child again
	gv := r.NewGaugeVec("alive", "Liveness.", "worker")
	gv.With("0").Set(1)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`grads_total{worker="0"} 1`,
		`grads_total{worker="1"} 4`,
		`alive{worker="0"} 1`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
	// Children must be sorted by label value for deterministic scrapes.
	if strings.Index(out, `worker="0"} 1`) > strings.Index(out, `worker="1"} 4`) {
		t.Errorf("vec children not sorted:\n%s", out)
	}
}

func TestNilSafety(t *testing.T) {
	// Every instrument must be a no-op on a nil receiver so disabled
	// instrumentation needs no branches at call sites.
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(1)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram has observations")
	}
	var cv *CounterVec
	cv.With("x").Inc()
	var gv *GaugeVec
	gv.With("x").Set(1)
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("ok_name", "")
	for name, fn := range map[string]func(){
		"duplicate":     func() { r.NewCounter("ok_name", "") },
		"invalid name":  func() { r.NewCounter("0bad", "") },
		"invalid label": func() { r.NewCounterVec("v", "", "0bad") },
		"no labels":     func() { r.NewCounterVec("v2", "") },
		"empty buckets": func() { r.NewHistogram("h", "", nil) },
		"non-monotonic": func() { r.NewHistogram("h2", "", []float64{2, 1}) },
		"nil gaugefunc": func() { r.NewGaugeFunc("gf", "", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestVecArityPanics(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("v", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label arity mismatch")
		}
	}()
	cv.With("only-one")
}

// TestConcurrentUpdatesAndScrapes is the race-detector workout: writers
// hammer every instrument kind while readers scrape.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c", "")
	g := r.NewGauge("g", "")
	h := r.NewHistogram("h", "", DefBuckets)
	cv := r.NewCounterVec("cv", "", "w")
	var wg sync.WaitGroup
	const writers, perWriter = 8, 500
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j) / 100)
				cv.With(string(rune('a' + i%4))).Inc()
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != writers*perWriter {
		t.Fatalf("counter = %d, want %d", c.Value(), writers*perWriter)
	}
	if h.Count() != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", h.Count(), writers*perWriter)
	}
	if g.Value() != writers*perWriter {
		t.Fatalf("gauge = %v, want %d", g.Value(), writers*perWriter)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExponentialBuckets(1, 2, 4)
	if exp[3] != 8 {
		t.Fatalf("ExponentialBuckets = %v", exp)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.NewCounter("c", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkNilCounterInc(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.NewHistogram("h", "", DefBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) / 100)
	}
}

// exactPercentile is the linear-interpolation order statistic the trace
// package uses — the ground truth the bucket estimator is judged against.
func exactPercentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// TestQuantileAgainstExactPercentiles drives random sample sets through a
// finely bucketed histogram and asserts every estimated quantile lands
// within one bucket width of the exact order statistic — the best any
// bucket interpolator can promise.
func TestQuantileAgainstExactPercentiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const width = 0.01
	buckets := make([]float64, 100) // 10ms-wide buckets over (0, 1]
	for i := range buckets {
		buckets[i] = width + float64(i)*width
	}
	for trial := 0; trial < 25; trial++ {
		r := NewRegistry()
		h := r.NewHistogram("h", "", buckets)
		n := 1 + rng.Intn(400)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() // uniform in [0,1)
			h.Observe(xs[i])
		}
		snap := h.Snapshot()
		if snap.Count != uint64(n) {
			t.Fatalf("trial %d: snapshot count %d, want %d", trial, snap.Count, n)
		}
		for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
			got := snap.Quantile(p)
			// The estimator's rank convention (p·n) and the exact order
			// statistic's (p·(n−1) interpolated) legitimately differ by up
			// to ~one sample rank, so the honest bound is the exact
			// percentile envelope at p ± 1.5/n, widened by one bucket.
			slack := 1.5 / float64(n)
			lo := exactPercentile(xs, math.Max(0, p-slack)) - width - 1e-12
			hi := exactPercentile(xs, math.Min(1, p+slack)) + width + 1e-12
			if got < lo || got > hi {
				t.Errorf("trial %d n=%d: Quantile(%v) = %v, outside exact envelope [%v, %v]",
					trial, n, p, got, lo, hi)
			}
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var nilH *Histogram
	if v := nilH.Quantile(0.5); !math.IsNaN(v) {
		t.Errorf("nil histogram quantile = %v, want NaN", v)
	}
	r := NewRegistry()
	h := r.NewHistogram("h", "", []float64{1, 2, 4})
	if v := h.Quantile(0.5); !math.IsNaN(v) {
		t.Errorf("empty histogram quantile = %v, want NaN", v)
	}
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(3)
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if v := h.Quantile(p); !math.IsNaN(v) {
			t.Errorf("Quantile(%v) = %v, want NaN", p, v)
		}
	}
	// Observations past the last finite bound clamp to it.
	h.Observe(100)
	if v := h.Quantile(1); v != 4 {
		t.Errorf("p=1 with +Inf-bucket sample = %v, want clamp to 4", v)
	}
	// Exactly one bucket occupied: answer stays inside that bucket.
	r2 := NewRegistry()
	h2 := r2.NewHistogram("h2", "", []float64{1, 2, 4})
	h2.Observe(1.5)
	h2.Observe(1.6)
	for _, p := range []float64{0, 0.5, 1} {
		if v := h2.Quantile(p); v < 1 || v > 2 {
			t.Errorf("single-bucket Quantile(%v) = %v, want within (1,2]", p, v)
		}
	}
	// All-negative first bucket has no zero floor to interpolate from.
	r3 := NewRegistry()
	h3 := r3.NewHistogram("h3", "", []float64{-1, 0, 1})
	h3.Observe(-5)
	if v := h3.Quantile(0.5); v != -1 {
		t.Errorf("negative-bucket quantile = %v, want -1", v)
	}
}
