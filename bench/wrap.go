package main

import (
	"math/rand"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"isgc/internal/bitset"
	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/model"
	"isgc/internal/straggler"
)

// recorder is the step tick: it stamps every entry into the master-side
// Strategy.Recover, which all three step loops call exactly once per step.
// The interval between two ticks is one step's wall time. It also owns the
// measurement window: the first warmup steps are excluded, and once the
// window has lasted `window` and holds minMeasured intervals it calls stop.
type recorder struct {
	warmup      int
	minMeasured int
	window      time.Duration
	stop        func()

	ticks []time.Time
	parts []int // recovered partitions per step
	// Process CPU and heap-allocation counters at the first and the last
	// measured tick.
	cpu0, cpu1     time.Duration
	alloc0, alloc1 uint64
	stopped        bool

	// host, when set, is read every calEvery steps; hostSamples[k] is the
	// reading taken just before tick k·calEvery, in seconds.
	host        *hostClock
	hostSamples []float64

	// Traced pass only.
	traced     bool
	recoverDur []time.Duration
	avail      []*bitset.Set
	steps      atomic.Int64 // ticks so far, for wrappers on other goroutines
}

// tick stamps one step. The stamp is taken after the host-clock reading, so
// a reading's own time falls into the interval that ends at this tick.
func (r *recorder) tick() time.Time {
	i := len(r.ticks)
	if r.host != nil && i%calEvery == 0 {
		r.hostSamples = append(r.hostSamples, r.host.sample().Seconds())
	}
	now := time.Now()
	r.ticks = append(r.ticks, now)
	r.steps.Store(int64(i + 1))
	if i == r.warmup {
		r.cpu0, r.alloc0 = processCPU(), heapAllocBytes()
	}
	if r.stopped || i < r.warmup+r.minMeasured || now.Sub(r.ticks[r.warmup]) < r.window {
		return now
	}
	r.stopped = true
	r.cpu1, r.alloc1 = processCPU(), heapAllocBytes()
	r.stop()
	return now
}

// hostReading returns the time the host-clock reading before tick i took,
// in seconds: 0 for a tick that had none.
func (r *recorder) hostReading(i int) float64 {
	if r.host == nil || i%calEvery != 0 {
		return 0
	}
	return r.hostSamples[i/calEvery]
}

// rawIntervals returns the measured tick intervals in seconds as the wall
// clock saw them, each without the host-clock reading it contains: what the
// traced pass's spans add up to.
func (r *recorder) rawIntervals() []float64 {
	var out []float64
	for i := r.warmup; i+1 < len(r.ticks); i++ {
		out = append(out, r.ticks[i+1].Sub(r.ticks[i]).Seconds()-r.hostReading(i+1))
	}
	return out
}

// intervals returns the measured tick intervals in seconds at the reference
// host speed (see hostClock): each raw interval scaled by hostRefSeconds over
// the median of the six readings around it. Without a host clock they are
// the raw intervals.
func (r *recorder) intervals() []float64 {
	out := r.rawIntervals()
	if r.host == nil {
		return out
	}
	for k := range out {
		s := (r.warmup + k) / calEvery
		around := r.hostSamples[max(0, s-2):min(len(r.hostSamples), s+4)]
		out[k] *= hostRefSeconds / quantile(around, 0.5)
	}
	return out
}

// blockSteps is the length of the blocks the step-rate statistics are
// medians over.
const blockSteps = 50

// blockMedian cuts n measured steps into consecutive blocks of blockSteps
// (fewer than one block's worth make a single short block; a shorter tail is
// dropped), applies f to each block [lo, hi) and returns the median of the
// results. The sandbox's host changes speed for a second or so at a time; a
// block that falls into such a stretch moves a mean over the run, but not
// the median over its blocks, while anything the program itself does every
// few steps — a checkpoint, a GC cycle, a burst departure — is in every
// block and so in the median.
func blockMedian(n int, f func(lo, hi int) float64) float64 {
	if n < blockSteps {
		return f(0, n)
	}
	var vals []float64
	for lo := 0; lo+blockSteps <= n; lo += blockSteps {
		vals = append(vals, f(lo, lo+blockSteps))
	}
	return quantile(vals, 0.5)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// stepsPerSecond is the step rate of the measured window: the median over
// its blocks of steps per second, at the reference host speed.
func (r *recorder) stepsPerSecond() float64 {
	iv := r.intervals()
	return blockMedian(len(iv), func(lo, hi int) float64 { return float64(hi-lo) / sum(iv[lo:hi]) })
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// tickStrategy wraps a Strategy so Recover ticks the recorder. Every other
// method is the embedded strategy's own.
type tickStrategy struct {
	engine.Strategy
	rec *recorder
}

func (t *tickStrategy) Recover(avail *bitset.Set, coded [][]float64) ([]float64, []int, error) {
	start := t.rec.tick()
	ghat, parts, err := t.Strategy.Recover(avail, coded)
	t.rec.parts = append(t.rec.parts, len(parts))
	if t.rec.traced {
		t.rec.recoverDur = append(t.rec.recoverDur, time.Since(start))
		t.rec.avail = append(t.rec.avail, avail.Clone())
	}
	return ghat, parts, err
}

// tickISGC is tickStrategy for strategies with IS-GC's optional
// capabilities. The master and the engine discover those by type assertion
// on the strategy they were given, so the wrapper must expose exactly the
// set the wrapped strategy has, or wrapping would change which path runs.
type tickISGC struct {
	*tickStrategy
	engine.RandStateful
	engine.DecodeCacher
	engine.IncrementalDecoder
}

// wrapStrategy returns st with the recorder's tick around Recover.
func wrapStrategy(st engine.Strategy, rec *recorder) engine.Strategy {
	base := &tickStrategy{Strategy: st, rec: rec}
	rs, isRS := st.(engine.RandStateful)
	dc, isDC := st.(engine.DecodeCacher)
	id, isID := st.(engine.IncrementalDecoder)
	switch {
	case isRS && isDC && isID:
		return &tickISGC{base, rs, dc, id}
	case !isRS && !isDC && !isID:
		return base
	}
	// No strategy in the repo has a proper subset; one that did would
	// silently lose or gain a capability here.
	panic("bench: strategy " + st.Name() + " implements only some of RandStateful/DecodeCacher/IncrementalDecoder")
}

// call is one timed call into a layer.
type call struct {
	step  int
	start time.Time
	dur   time.Duration
}

// callLog collects calls from concurrent goroutines.
type callLog struct {
	mu    sync.Mutex
	calls []call
}

func (l *callLog) add(c call) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

// workerProbe observes one worker from outside through the values its
// config takes: the model (GradInto), the encoder and the delay model. A
// worker serves steps in order from 0 and encodes once per step, so the
// encode count is the step the worker is on.
type workerProbe struct {
	id   int
	tl   *events.Timeline
	step atomic.Int64

	grad   callLog
	encode []call // encoder runs on the worker's own goroutine
	delay  []time.Duration
	// ready[k] is when step k's upload was ready to leave the worker:
	// encode end plus the injected delay.
	ready []time.Time
}

// tracedModel times GradInto/Grad on a worker, or Loss on the master.
type tracedModel struct {
	model.Model
	log  *callLog
	step func() int
	tl   *events.Timeline
	tid  int
}

func (m *tracedModel) GradInto(dst, params []float64, batch []dataset.Sample) {
	start := time.Now()
	m.Model.GradInto(dst, params, batch)
	m.done("grad", start)
}

func (m *tracedModel) Grad(params []float64, batch []dataset.Sample) []float64 {
	start := time.Now()
	g := m.Model.Grad(params, batch)
	m.done("grad", start)
	return g
}

func (m *tracedModel) Loss(params []float64, batch []dataset.Sample) float64 {
	start := time.Now()
	l := m.Model.Loss(params, batch)
	m.done("loss", start)
	return l
}

func (m *tracedModel) done(name string, start time.Time) {
	c := call{step: m.step(), start: start, dur: time.Since(start)}
	m.log.add(c)
	m.tl.Add(events.Span{Name: name, Cat: "model", TID: m.tid, Start: start, Dur: c.dur,
		Args: map[string]any{"step": c.step}})
}

func (p *workerProbe) model(m model.Model) model.Model {
	return &tracedModel{Model: m, log: &p.grad, step: func() int { return int(p.step.Load()) }, tl: p.tl, tid: p.id + 1}
}

func (p *workerProbe) encoder(enc func([][]float64) ([]float64, error)) func([][]float64) ([]float64, error) {
	return func(local [][]float64) ([]float64, error) {
		start := time.Now()
		out, err := enc(local)
		end := time.Now()
		step := int(p.step.Load())
		p.encode = append(p.encode, call{step: step, start: start, dur: end.Sub(start)})
		p.ready = append(p.ready, end)
		p.tl.Add(events.Span{Name: "encode", Cat: "isgc", TID: p.id + 1, Start: start, Dur: end.Sub(start),
			Args: map[string]any{"step": step}})
		p.step.Add(1)
		return out, err
	}
}

// tracedDelay records what the straggler model samples. The worker samples
// after encoding and sleeps the result before uploading.
type tracedDelay struct {
	straggler.Model
	p *workerProbe
}

func (d tracedDelay) Sample(rng *rand.Rand) time.Duration {
	v := d.Model.Sample(rng)
	d.p.delay = append(d.p.delay, v)
	if k := len(d.p.ready) - 1; k >= 0 {
		d.p.ready[k] = time.Now().Add(v)
	}
	return v
}
