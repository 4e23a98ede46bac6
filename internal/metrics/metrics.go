// Package metrics is a zero-third-party-dependency, race-safe metrics
// registry with Prometheus text-format exposition. It provides the three
// classic instrument kinds — monotonic Counter, settable Gauge (plus
// pull-time GaugeFunc), and fixed-bucket Histogram — together with
// labeled families (CounterVec, GaugeVec), and renders everything in the
// Prometheus exposition format version 0.0.4 so any off-the-shelf scraper
// can consume a running master or worker.
//
// Design notes:
//
//   - Hot-path operations (Inc, Add, Set, Observe) are lock-free atomics;
//     a scrape never blocks an instrumented training step.
//   - Every instrument method is safe on a nil receiver and does nothing,
//     so instrumented code paths need no "metrics enabled?" branches.
//   - Registration panics on invalid or duplicate names: metric names are
//     compile-time constants in this codebase, so a bad one is a
//     programmer error, not a runtime condition.
//   - A scrape taken concurrently with updates is not a point-in-time
//     snapshot across metrics (each value is individually atomic); this
//     matches the guarantees of the standard Prometheus client.
//   - The text exposition is the read side. Storage over time, rates,
//     windowed quantiles and alerting belong to the scraper; the one
//     in-process reading is Histogram.Quantile, the bucket estimate behind
//     /healthz's gather percentiles and the master's latency line.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// DefBuckets are general-purpose latency buckets in seconds, matching the
// Prometheus client defaults.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExponentialBuckets returns count bucket upper bounds start, start·factor, …
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if count < 1 || start <= 0 || factor <= 1 {
		panic(fmt.Sprintf("metrics: ExponentialBuckets(%v, %v, %d): need count ≥ 1, start > 0, factor > 1", start, factor, count))
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// family is one registered metric family: name, metadata, and a collector
// that appends the family's sample lines at scrape time.
type family struct {
	name, help, typ string
	collect         func(b *lineWriter)
}

// Registry holds metric families and renders them. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*family
	fams   []*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds a family, panicking on invalid or duplicate names —
// metric names are source-code constants, so this is a programmer error.
func (r *Registry) register(name, help, typ string, collect func(*lineWriter)) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	f := &family{name: name, help: help, typ: typ, collect: collect}
	r.byName[name] = f
	r.fams = append(r.fams, f)
}

// families returns the registered families sorted by name.
func (r *Registry) families() []*family {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func checkLabels(name string, labels []string) {
	if len(labels) == 0 {
		panic(fmt.Sprintf("metrics: vec %q needs at least one label", name))
	}
	for _, l := range labels {
		if !labelRE.MatchString(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l, name))
		}
	}
}

// Counter -----------------------------------------------------------------

// Counter is a monotonically increasing integer counter. All methods are
// safe on a nil receiver (no-ops), so disabled instrumentation costs one
// predictable branch.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", func(b *lineWriter) {
		b.sample(name, "", formatUint(c.Value()))
	})
	return c
}

// Gauge -------------------------------------------------------------------

// Gauge is a float value that can go up and down. Safe on nil receivers.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by d (CAS loop).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", func(b *lineWriter) {
		b.sample(name, "", formatFloat(g.Value()))
	})
	return g
}

// NewGaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for quantities that are views over live state (alive workers,
// heartbeat age) rather than stored values. fn must be safe to call from
// the scrape goroutine.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	if fn == nil {
		panic(fmt.Sprintf("metrics: nil GaugeFunc for %q", name))
	}
	r.register(name, help, "gauge", func(b *lineWriter) {
		b.sample(name, "", formatFloat(fn()))
	})
}

// Histogram ---------------------------------------------------------------

// Histogram counts observations into fixed buckets (cumulative "le" style
// at exposition). Safe on nil receivers.
type Histogram struct {
	upper   []float64 // sorted upper bounds, excluding +Inf
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func newHistogram(name string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket", name))
	}
	upper := append([]float64(nil), buckets...)
	for i := 1; i < len(upper); i++ {
		if upper[i] <= upper[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not strictly increasing at %v", name, upper[i]))
		}
	}
	if math.IsInf(upper[len(upper)-1], +1) {
		upper = upper[:len(upper)-1] // +Inf is implicit
	}
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

func (h *Histogram) write(b *lineWriter, name, labels string) {
	cum := uint64(0)
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		b.sample(name+"_bucket", joinLabels(labels, `le="`+formatFloat(ub)+`"`), formatUint(cum))
	}
	// The +Inf bucket equals the total count by definition; use the count
	// counter so the pair stays consistent within one scrape line group.
	total := h.Count()
	b.sample(name+"_bucket", joinLabels(labels, `le="+Inf"`), formatUint(total))
	b.sample(name+"_sum", labels, formatFloat(h.Sum()))
	b.sample(name+"_count", labels, formatUint(total))
}

// HistogramSnapshot is a point-in-time copy of a histogram's buckets,
// the raw material for estimated quantiles.
type HistogramSnapshot struct {
	// Upper are the finite bucket upper bounds, strictly increasing. The
	// slice is shared with the histogram; do not mutate it.
	Upper []float64
	// Counts are per-bucket (non-cumulative) observation counts;
	// len(Counts) == len(Upper)+1, the last entry being the +Inf bucket.
	Counts []uint64
	// Count is the total observation count (sum of Counts — internally
	// consistent with the buckets even under concurrent observes).
	Count uint64
}

// Snapshot copies the histogram's current bucket counts. The total Count
// is derived from the bucket reads so the pair stays consistent. Safe on
// a nil receiver (zero snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Upper:  h.upper,
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Quantile estimates the p-quantile (p in [0, 1]) of the observed
// distribution by linear interpolation within the bucket that contains the
// target rank — the same estimator as Prometheus's histogram_quantile.
// Values landing in the +Inf bucket clamp to the highest finite bound.
// Returns NaN for an empty snapshot or p outside [0, 1].
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 || len(s.Upper) == 0 || math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	target := p * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			if i >= len(s.Upper) {
				// +Inf bucket: no finite upper edge to interpolate toward.
				return s.Upper[len(s.Upper)-1]
			}
			upper := s.Upper[i]
			lower := 0.0
			if i > 0 {
				lower = s.Upper[i-1]
			} else if upper <= 0 {
				// All-negative first bucket: no zero floor to lean on.
				return upper
			}
			pos := (target - float64(cum)) / float64(c)
			if pos < 0 {
				pos = 0
			}
			return lower + (upper-lower)*pos
		}
		cum += c
	}
	return s.Upper[len(s.Upper)-1]
}

// Quantile is shorthand for Snapshot().Quantile(p) — one estimated
// quantile off the live histogram. Returns NaN on a nil or empty
// histogram.
func (h *Histogram) Quantile(p float64) float64 {
	return h.Snapshot().Quantile(p)
}

// NewHistogram registers and returns a histogram with the given bucket
// upper bounds (strictly increasing; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(name, buckets)
	r.register(name, help, "histogram", func(b *lineWriter) {
		h.write(b, name, "")
	})
	return h
}

// Labeled families ---------------------------------------------------------

// vec is the shared child store of CounterVec / GaugeVec: an insertion-
// ordered map from the joined label values to the child metric.
type vec[T any] struct {
	labels   []string
	mu       sync.Mutex
	children map[string]*T
	keys     []string // insertion order; sorted at collect time
}

func (v *vec[T]) with(name string, values []string, make func() *T) *T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %q wants %d label values, got %d", name, len(v.labels), len(values)))
	}
	key := labelPairs(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c
	}
	c := make()
	v.children[key] = c
	v.keys = append(v.keys, key)
	return c
}

func (v *vec[T]) collect(b *lineWriter, write func(b *lineWriter, labels string, child *T)) {
	v.mu.Lock()
	keys := append([]string(nil), v.keys...)
	children := make([]*T, len(keys))
	sort.Strings(keys)
	for i, k := range keys {
		children[i] = v.children[k]
	}
	v.mu.Unlock()
	for i, k := range keys {
		write(b, k, children[i])
	}
}

// labelPairs renders `l1="v1",l2="v2"` with Prometheus escaping.
func labelPairs(labels, values []string) string {
	out := ""
	for i, l := range labels {
		if i > 0 {
			out += ","
		}
		out += l + `="` + escapeLabelValue(values[i]) + `"`
	}
	return out
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	name string
	vec  vec[Counter]
}

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	checkLabels(name, labels)
	cv := &CounterVec{name: name, vec: vec[Counter]{labels: labels, children: make(map[string]*Counter)}}
	r.register(name, help, "counter", func(b *lineWriter) {
		cv.vec.collect(b, func(b *lineWriter, lbls string, c *Counter) {
			b.sample(name, lbls, formatUint(c.Value()))
		})
	})
	return cv
}

// With returns the child counter for the given label values, creating it
// on first use. Safe on a nil receiver (returns a nil, no-op child).
func (cv *CounterVec) With(values ...string) *Counter {
	if cv == nil {
		return nil
	}
	return cv.vec.with(cv.name, values, func() *Counter { return &Counter{} })
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct {
	name string
	vec  vec[Gauge]
}

// NewGaugeVec registers a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	checkLabels(name, labels)
	gv := &GaugeVec{name: name, vec: vec[Gauge]{labels: labels, children: make(map[string]*Gauge)}}
	r.register(name, help, "gauge", func(b *lineWriter) {
		gv.vec.collect(b, func(b *lineWriter, lbls string, g *Gauge) {
			b.sample(name, lbls, formatFloat(g.Value()))
		})
	})
	return gv
}

// With returns the child gauge for the given label values, creating it on
// first use. Safe on a nil receiver (returns a nil, no-op child).
func (gv *GaugeVec) With(values ...string) *Gauge {
	if gv == nil {
		return nil
	}
	return gv.vec.with(gv.name, values, func() *Gauge { return &Gauge{} })
}
