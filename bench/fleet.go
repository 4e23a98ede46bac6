package main

import (
	"fmt"
	"math/rand"
	"time"

	"isgc/internal/bitset"
	"isgc/internal/engine"
	"isgc/internal/isgc"
	"isgc/internal/linalg"
	"isgc/internal/placement"
)

// fleetShape is the fleet-churn workload: the decoder at fleet scale, in
// process, through the same Strategy.Recover the TCP master calls. The
// fleet estimates the mean of n vectors by SGD — partition p's loss is
// ½‖θ − t_p‖² — so a worker's coded upload is c·θ − Σ t_p over its
// partitions. The θ term is the same for every worker, so the harness adds
// it after Recover and the coded vectors handed to Recover stay constant:
// a step costs a mask update, Recover, and a parameter update, nothing else.
type fleetShape struct {
	name string
	n, c int
	dim  int
	lr   float64
	// down workers [0, down) never come up. With CR the hole pins where
	// every run of recovered partitions starts, which is what lets the
	// harness read a chosen worker off the recovered-partition list.
	down int
	// away is how many steps a departed worker stays away.
	away int

	warmup        int
	minMeasured   int
	lossStep      int
	lossThreshold float64 // on the excess loss ½‖θ − t̄‖², as a share of its initial value
}

var fleetSpec = fleetShape{
	name: "fleet-churn", n: 50000, c: 8, dim: 64, lr: 0.004, down: 16, away: 5,
	warmup: warmupSteps, minMeasured: 1000, lossStep: 1000, lossThreshold: 0.05,
}

func (sp *fleetShape) toy() *fleetShape {
	t := *sp
	t.n, t.warmup, t.minMeasured, t.lossStep, t.lr, t.lossThreshold = 512, 5, 195, 195, 0.05, 0.5
	return &t
}

// fleetInputs are the constant coded vectors and the loss's closed form.
type fleetInputs struct {
	coded [][]float64 // coded[i] = −Σ_{p ∈ partitions(i)} t_p
	tbar  []float64   // mean target
	floor float64     // loss at θ = t̄: (1/2n) Σ ‖t_p − t̄‖²
}

func (sp *fleetShape) inputs(seed int64) (*fleetInputs, error) {
	place, err := placement.CR(sp.n, sp.c, placement.Structural())
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	targets := make([]float64, sp.n*sp.dim)
	in := &fleetInputs{tbar: make([]float64, sp.dim)}
	for p := 0; p < sp.n; p++ {
		for k := 0; k < sp.dim; k++ {
			v := 1 + rng.NormFloat64()
			targets[p*sp.dim+k] = v
			in.tbar[k] += v / float64(sp.n)
		}
	}
	for p := 0; p < sp.n; p++ {
		for k := 0; k < sp.dim; k++ {
			d := targets[p*sp.dim+k] - in.tbar[k]
			in.floor += d * d / float64(2*sp.n)
		}
	}
	flat := make([]float64, sp.n*sp.dim)
	in.coded = make([][]float64, sp.n)
	for i := range in.coded {
		in.coded[i] = flat[i*sp.dim : (i+1)*sp.dim]
		for _, p := range place.Partitions(i) {
			linalg.AXPY(in.coded[i], -1, targets[p*sp.dim:(p+1)*sp.dim])
		}
	}
	return in, nil
}

// excess is ½‖θ − t̄‖², the part of the loss training can remove.
func (in *fleetInputs) excess(theta []float64) float64 {
	s := 0.0
	for k, v := range theta {
		d := v - in.tbar[k]
		s += d * d
	}
	return s / 2
}

// fleetRun is what one fleet pass leaves behind.
type fleetRun struct {
	rec    *recorder
	place  *placement.Placement
	losses []float64 // full loss after each step
	setup  float64   // seconds: scheme construction and the cold first Recover
	build  time.Duration
	alpha  []float64 // chosen / Thm. 11 upper bound, per step (traced pass)
	proc   procStats
}

// churn mutates the availability mask in place, as a long-running master
// sees its fleet: one departure per step returning sp.away steps later,
// every 8th aimed at a currently chosen worker, and every 64th step a
// contiguous block of n/64 workers leaving together.
type churn struct {
	sp      *fleetShape
	rng     *rand.Rand
	avail   *bitset.Set
	returns [][]int // ring: returns[t % len] come back at step t
}

func newChurn(sp *fleetShape, seed int64) *churn {
	c := &churn{sp: sp, rng: rand.New(rand.NewSource(seed ^ 0x5eed)), avail: bitset.New(sp.n),
		returns: make([][]int, sp.away+1)}
	for i := sp.down; i < sp.n; i++ {
		c.avail.Add(i)
	}
	return c
}

func (c *churn) leave(step, w int) {
	if !c.avail.Contains(w) {
		return
	}
	c.avail.Remove(w)
	slot := (step + c.sp.away) % len(c.returns)
	c.returns[slot] = append(c.returns[slot], w)
}

// step applies step t's churn. parts is the previous step's recovered
// partition list (nil before the first).
func (c *churn) step(t int, parts []int) {
	slot := t % len(c.returns)
	for _, w := range c.returns[slot] {
		c.avail.Add(w)
	}
	c.returns[slot] = c.returns[slot][:0]

	sp := c.sp
	target := sp.down + c.rng.Intn(sp.n-sp.down)
	if t%8 == 0 && len(parts) > 0 {
		if w, ok := chosenWorker(parts, c.rng.Intn(len(parts)), sp.c, sp.down); ok {
			target = w
		}
	}
	c.leave(t, target)
	if t%64 == 0 {
		block := sp.n / 64
		lo := sp.down + c.rng.Intn(sp.n-sp.down-block)
		for w := lo; w < lo+block; w++ {
			c.leave(t, w)
		}
	}
}

// chosenWorker returns the chosen worker that recovered partition parts[k].
// With CR(n, c) a chosen worker i recovers partitions i..i+c−1, chosen
// windows are disjoint, and the first partition of a maximal run of
// consecutive recovered partitions can only come from the worker of the
// same index — so windows tile each run from its start. parts is sorted,
// so the run's start is found by bisection. Runs that begin below `down`
// wrap around n and are skipped.
func chosenWorker(parts []int, k, c, down int) (int, bool) {
	lo, hi := 0, k // smallest r with parts[k]-parts[r] == k-r
	for lo < hi {
		mid := (lo + hi) / 2
		if parts[k]-parts[mid] == k-mid {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if parts[lo] < down {
		return 0, false
	}
	return parts[lo+(k-lo)/c*c], true
}

func runFleetWorkload(sp *fleetShape, o *options) (*result, error) {
	if o.toy {
		sp = sp.toy()
	}
	in, err := sp.inputs(o.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	if o.trace {
		q := *sp
		if !o.toy {
			q.minMeasured /= 4
		}
		base, err := q.run(in, o.seed, o.window(), false, res)
		if err != nil {
			return nil, err
		}
		traced, err := q.run(in, o.seed, o.window(), true, res)
		if err != nil {
			return nil, err
		}
		res.samples = len(traced.rec.intervals())
		res.set(perLayer, q.layers(traced, base.rec.stepsPerSecond(), in, o))
		return res, nil
	}
	var setups []float64
	initial := newChurn(sp, o.seed).avail
	moreSetups := func() error {
		for i := 0; i < o.setupRepeats()/2; i++ {
			extra := fleetRun{rec: &recorder{}}
			if _, err := sp.build(in, o.seed, initial, &extra); err != nil {
				return err
			}
			setups = append(setups, extra.setup)
		}
		return nil
	}
	if err := moreSetups(); err != nil {
		return nil, err
	}
	run, err := sp.run(in, o.seed, o.window(), false, res)
	if err != nil {
		return nil, err
	}
	if err := moreSetups(); err != nil {
		return nil, err
	}
	// The threshold is a fixed share of the loss training can remove.
	threshold := in.floor + sp.lossThreshold*in.excess(make([]float64, sp.dim))
	m := endToEndMetrics(run.rec, sp.n, 1, run.losses, sp.lossStep, threshold, res)
	m["setup_s"] = quantile(append(setups, run.setup), 0.5)
	res.set(endToEnd, m)
	return res, nil
}

// build is the fleet's set-up: placement, scheme and strategy construction
// and the cold first Recover on the initial mask, after which the decoder
// holds whatever state it keeps between steps. It fills run.place, run.setup
// and run.build and returns the strategy, ticking run.rec.
func (sp *fleetShape) build(in *fleetInputs, seed int64, initial *bitset.Set, run *fleetRun) (engine.Strategy, error) {
	start := time.Now()
	place, err := placement.CR(sp.n, sp.c, placement.Structural())
	if err != nil {
		return nil, err
	}
	inner, err := engine.NewISGC(isgc.New(place, seed))
	if err != nil {
		return nil, err
	}
	run.place, run.build = place, time.Since(start)
	if _, _, err := inner.Recover(initial, in.coded); err != nil {
		return nil, err
	}
	run.setup = time.Since(start).Seconds()
	return wrapStrategy(inner, run.rec), nil
}

// run is one pass of the closed loop: step t+1 starts when step t's
// parameter update is done.
func (sp *fleetShape) run(in *fleetInputs, seed int64, window time.Duration, traced bool, res *result) (*fleetRun, error) {
	run := &fleetRun{rec: &recorder{warmup: sp.warmup, minMeasured: sp.minMeasured, window: window, traced: traced,
		host: newHostClock()}}
	done := false
	run.rec.stop = func() { done = true }
	ch := newChurn(sp, seed)
	st, err := sp.build(in, seed, ch.avail, run)
	if err != nil {
		return nil, err
	}
	place := run.place
	theta := make([]float64, sp.dim)
	var parts []int
	run.proc.begin()
	for t := 0; !done; t++ {
		ch.step(t, parts)
		var ghat []float64
		ghat, parts, err = st.Recover(ch.avail, in.coded)
		if err != nil {
			return nil, fmt.Errorf("%s: step %d: %w", sp.name, t, err)
		}
		// ĝ = |parts|·θ + Σ coded, normalized by |parts| as the engine does.
		k := float64(len(parts))
		for j := range theta {
			theta[j] -= sp.lr * (theta[j] + ghat[j]/k)
		}
		run.losses = append(run.losses, in.floor+in.excess(theta))
		res.Attempted++
		if note := sp.checkStep(t, ch.avail, parts, place, seed); note != "" {
			res.fail(1, note)
		}
		if traced {
			_, upper := place.AlphaBounds(ch.avail.Len())
			run.alpha = append(run.alpha, float64(len(parts)/sp.c)/float64(upper))
		}
	}
	run.proc.end()
	return run, nil
}

// checkStep is fleet-churn's correctness check: parts strictly increasing
// (sorted, no duplicates), a whole number α of workers' worth with α inside
// the Thm. 10–11 bounds for the mask, and on every 256th step equal in size
// to a from-scratch decode on a fresh scheme.
func (sp *fleetShape) checkStep(t int, avail *bitset.Set, parts []int, place *placement.Placement, seed int64) string {
	for i := 1; i < len(parts); i++ {
		if parts[i] <= parts[i-1] {
			return fmt.Sprintf("step %d: parts[%d]=%d after %d", t, i, parts[i], parts[i-1])
		}
	}
	alpha := len(parts) / sp.c
	lower, upper := place.AlphaBounds(avail.Len())
	if len(parts)%sp.c != 0 || alpha < lower || alpha > upper {
		return fmt.Sprintf("step %d: %d partitions from %d available, α bounds [%d, %d]", t, len(parts), avail.Len(), lower, upper)
	}
	if t%256 == 0 {
		if fresh := isgc.New(place, seed).Decode(avail).Len(); fresh != alpha {
			return fmt.Sprintf("step %d: chose %d workers, a from-scratch decode chooses %d", t, alpha, fresh)
		}
	}
	return ""
}
