// Command isgc-loadgen stress-drives the IS-GC decoder at fleet scale
// (up to 50k virtual workers) under configurable availability churn, and
// reports per-step decode latency (mean/p50/p95), decode throughput and the
// latency of mapping the chosen set to its recovered partitions (p50/p95),
// in the `go test` benchmark line grammar:
//
//	isgc-loadgen -scheme cr -n 50000 -c 8 -steps 2000 -churn drift \
//	    -mode both
//
// Churn models (all maintain the availability mask in place — the mask is
// never rebuilt, matching how a long-running master observes the fleet):
//
//	drift       — a fixed number (-rate) of random available workers depart
//	              each step and return five steps later: the steady
//	              one-worker-per-step trickle of a healthy large fleet.
//	bernoulli   — the number of departures per step is Poisson(-rate) and
//	              each departed worker returns after a geometric delay:
//	              memoryless node-level failures.
//	bursty      — background drift plus occasional contiguous blocks of
//	              n/64 workers departing at once (rack/switch events).
//	adversarial — departures target the decoder's *current chosen set*,
//	              forcing a repair (never a free no-chosen-departed step)
//	              on every single step.
//
// Virtual time comes from internal/simclock: each step samples per-worker
// finish times for a heterogeneous fleet and charges the master the max
// finish time over the available workers, reported as sim-ms-per-step.
//
// With -mode both the fresh and incremental passes replay the same churn
// sequence (same seed) and the tool emits a .../speedup line carrying the
// p95 and mean latency ratios.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"isgc/internal/bitset"
	"isgc/internal/isgc"
	"isgc/internal/placement"
	"isgc/internal/simclock"
)

type options struct {
	scheme         string
	n, c           int
	hrC1, hrC2     int
	hrGroups       int
	steps          int
	churn          string
	rate           float64
	seed           int64
	mode           string
	verify         bool
	requireRepairs bool
	minP95Speedup  float64
}

func main() {
	var opts options
	fs := flag.NewFlagSet("isgc-loadgen", flag.ExitOnError)
	fs.StringVar(&opts.scheme, "scheme", "cr", "placement scheme: fr, cr, or hr")
	fs.IntVar(&opts.n, "n", 50000, "number of virtual workers (and partitions)")
	fs.IntVar(&opts.c, "c", 8, "partitions per worker (fr/cr)")
	fs.IntVar(&opts.hrC1, "hr-c1", 4, "hr: fractional-repetition partitions per worker")
	fs.IntVar(&opts.hrC2, "hr-c2", 4, "hr: circulant partitions per worker")
	fs.IntVar(&opts.hrGroups, "hr-groups", 5000, "hr: number of groups")
	fs.IntVar(&opts.steps, "steps", 2000, "training steps to simulate")
	fs.StringVar(&opts.churn, "churn", "drift", "churn model: drift, bernoulli, bursty, or adversarial")
	fs.Float64Var(&opts.rate, "rate", 1, "expected departures per step")
	fs.Int64Var(&opts.seed, "seed", 1, "seed for churn and decoder tie-breaking")
	fs.StringVar(&opts.mode, "mode", "both", "decode path: fresh, incremental, or both")
	fs.BoolVar(&opts.verify, "verify", false,
		"cross-check every step against an independent fresh decode (slow; for smoke runs)")
	fs.BoolVar(&opts.requireRepairs, "require-repairs", false,
		"exit non-zero unless the incremental pass served at least one repair")
	fs.Float64Var(&opts.minP95Speedup, "min-p95-speedup", 0,
		"with -mode both, exit non-zero unless fresh-p95 / incremental-p95 reaches this ratio")
	fs.Parse(os.Args[1:])

	if err := run(opts, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "isgc-loadgen:", err)
		os.Exit(1)
	}
}

func run(opts options, out, errOut io.Writer) error {
	p, err := buildPlacement(opts)
	if err != nil {
		return err
	}
	if opts.steps <= 0 {
		return fmt.Errorf("need -steps > 0, got %d", opts.steps)
	}
	var modes []bool // incremental?
	switch opts.mode {
	case "fresh":
		modes = []bool{false}
	case "incremental":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("unknown -mode %q (want fresh, incremental, or both)", opts.mode)
	}

	results := make(map[bool]*passResult, len(modes))
	for _, incremental := range modes {
		res, err := runPass(p, opts, incremental)
		if err != nil {
			return err
		}
		results[incremental] = res
		emit(out, opts, p, res)
		fmt.Fprintf(errOut, "%s: steps=%d mean=%v p50=%v p95=%v repairs=%d fallbacks=%d full-solves=%d\n",
			res.label, opts.steps, res.mean, res.p50, res.p95,
			res.stats.Repairs, res.stats.Fallbacks, res.stats.FullSolves)
	}

	if opts.requireRepairs {
		inc, ok := results[true]
		if !ok {
			return fmt.Errorf("-require-repairs needs -mode incremental or both")
		}
		if inc.stats.Repairs == 0 {
			return fmt.Errorf("incremental pass served zero repairs (stats %+v)", inc.stats)
		}
	}
	if fresh, inc := results[false], results[true]; fresh != nil && inc != nil {
		p95x := ratio(fresh.p95, inc.p95)
		meanx := ratio(fresh.mean, inc.mean)
		fmt.Fprintf(out, "%s/speedup %d %.2f p95-x %.2f mean-x\n",
			benchName(opts, p), opts.steps, p95x, meanx)
		fmt.Fprintf(errOut, "speedup: p95 %.2fx, mean %.2fx\n", p95x, meanx)
		if opts.minP95Speedup > 0 && p95x < opts.minP95Speedup {
			return fmt.Errorf("p95 speedup %.2fx below required %.2fx", p95x, opts.minP95Speedup)
		}
	} else if opts.minP95Speedup > 0 {
		return fmt.Errorf("-min-p95-speedup needs -mode both")
	}
	return nil
}

func buildPlacement(opts options) (*placement.Placement, error) {
	switch opts.scheme {
	case "fr":
		return placement.FR(opts.n, opts.c, placement.Structural())
	case "cr":
		return placement.CR(opts.n, opts.c, placement.Structural())
	case "hr":
		return placement.HR(opts.n, opts.hrC1, opts.hrC2, opts.hrGroups, placement.Structural())
	default:
		return nil, fmt.Errorf("unknown -scheme %q (want fr, cr, or hr)", opts.scheme)
	}
}

type passResult struct {
	label           string // "fresh" or "incremental"
	mean, p50, p95  time.Duration
	recP50, recP95  time.Duration // Scheme.Recovered(chosen), the step's other master-side cost
	stepsPerSec     float64
	simMsPerStep    float64
	stats           isgc.IncrementalStats
	finalChosenSize int
}

// runPass replays opts.steps churn steps against one decoder configuration
// and collects per-step latencies of Decode and, separately, of Recovered on
// the set it chose; the churn bookkeeping, verification, and simclock
// accounting sit outside both timers.
func runPass(p *placement.Placement, opts options, incremental bool) (*passResult, error) {
	scheme := isgc.New(p, opts.seed)
	label := "fresh"
	if incremental {
		scheme.EnableIncrementalDecode()
		label = "incremental"
	}
	var verifier *isgc.Scheme
	if opts.verify {
		verifier = isgc.New(p, opts.seed+1)
	}
	sim, err := simclock.New(simclock.Config{
		N:                   p.N(),
		ComputePerPartition: 200 * time.Microsecond,
		PartitionsPerWorker: p.C(),
		Upload:              50 * time.Microsecond,
		ComputeFactors:      heterogeneousFactors(p.N()),
	})
	if err != nil {
		return nil, err
	}
	ch, err := newChurner(opts, p.N())
	if err != nil {
		return nil, err
	}

	mask := bitset.New(p.N())
	for v := 0; v < p.N(); v++ {
		mask.Add(v)
	}
	lat := make([]time.Duration, 0, opts.steps)
	recLat := make([]time.Duration, 0, opts.steps)
	var decodeTotal, virtual time.Duration
	var chosen *bitset.Set
	for step := 0; step < opts.steps; step++ {
		times := sim.Step()
		start := time.Now()
		chosen = scheme.Decode(mask)
		d := time.Since(start)
		scheme.Recovered(chosen)
		recLat = append(recLat, time.Since(start)-d)
		lat = append(lat, d)
		decodeTotal += d
		virtual += maxOverMask(times, mask)
		if verifier != nil {
			if err := verifyStep(p, verifier, mask, chosen); err != nil {
				return nil, fmt.Errorf("step %d: %w", step, err)
			}
		}
		ch.advance(mask, chosen)
	}

	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	sort.Slice(recLat, func(a, b int) bool { return recLat[a] < recLat[b] })
	res := &passResult{
		label:           label,
		mean:            decodeTotal / time.Duration(len(lat)),
		p50:             percentile(lat, 50),
		p95:             percentile(lat, 95),
		recP50:          percentile(recLat, 50),
		recP95:          percentile(recLat, 95),
		stats:           scheme.IncrementalDecodeStats(),
		finalChosenSize: chosen.Len(),
	}
	if decodeTotal > 0 {
		res.stepsPerSec = float64(opts.steps) / decodeTotal.Seconds()
	}
	res.simMsPerStep = virtual.Seconds() * 1e3 / float64(opts.steps)
	return res, nil
}

// verifyStep cross-checks one decode against an independent fresh solve:
// same |I| (every maximum independent set has the same size), chosen ⊆
// mask, and independence. The independence check is O(|I|): for all three
// placements, two conflicting chosen workers with no chosen worker between
// them are adjacent in sorted order (conflicts are confined to a group or a
// circular distance-< c window), so checking consecutive pairs plus the
// wrap-around pair suffices.
func verifyStep(p *placement.Placement, verifier *isgc.Scheme, mask, chosen *bitset.Set) error {
	want := verifier.Decode(mask).Len()
	if chosen.Len() != want {
		return fmt.Errorf("|I| = %d, fresh solve found %d", chosen.Len(), want)
	}
	first, prev := -1, -1
	var err error
	chosen.Range(func(w int) bool {
		if !mask.Contains(w) {
			err = fmt.Errorf("chosen worker %d not in availability mask", w)
			return false
		}
		if prev >= 0 && p.Conflicts(prev, w) {
			err = fmt.Errorf("chosen workers %d and %d conflict", prev, w)
			return false
		}
		if first < 0 {
			first = w
		}
		prev = w
		return true
	})
	if err != nil {
		return err
	}
	if first >= 0 && first != prev && p.Conflicts(prev, first) {
		return fmt.Errorf("chosen workers %d and %d conflict (wrap)", prev, first)
	}
	return nil
}

// churner mutates the availability mask in place according to the chosen
// model, tracking scheduled returns so the fleet size stays bounded.
type churner struct {
	model   string
	rng     *rand.Rand
	n       int
	rate    float64
	step    int
	returns map[int][]int // due step -> workers
}

func newChurner(opts options, n int) (*churner, error) {
	switch opts.churn {
	case "drift", "bernoulli", "bursty", "adversarial":
	default:
		return nil, fmt.Errorf("unknown -churn %q (want drift, bernoulli, bursty, or adversarial)", opts.churn)
	}
	if opts.rate <= 0 {
		return nil, fmt.Errorf("need -rate > 0, got %v", opts.rate)
	}
	return &churner{
		model:   opts.churn,
		rng:     rand.New(rand.NewSource(opts.seed * 2654435761)),
		n:       n,
		rate:    opts.rate,
		returns: make(map[int][]int),
	}, nil
}

// advance applies one churn step: scheduled returns re-enter the mask, then
// the model departs its victims. chosen is the decoder's current answer —
// only the adversarial model peeks at it.
func (c *churner) advance(mask, chosen *bitset.Set) {
	c.step++
	for _, w := range c.returns[c.step] {
		mask.Add(w)
	}
	delete(c.returns, c.step)

	switch c.model {
	case "drift":
		c.departRandom(mask, int(c.rate+0.5), 5)
	case "bernoulli":
		c.departRandom(mask, c.poisson(c.rate), 1+c.geometric(0.2))
	case "bursty":
		c.departRandom(mask, int(c.rate+0.5), 5)
		if c.rng.Intn(40) == 0 {
			c.departBlock(mask, max(2, c.n/64), 10)
		}
	case "adversarial":
		c.departChosen(mask, chosen, int(c.rate+0.5), 5)
	}
}

// departRandom removes k uniformly random available workers, scheduling
// their return delay steps later. It never empties the mask.
func (c *churner) departRandom(mask *bitset.Set, k, delay int) {
	for i := 0; i < k && mask.Len() > 1; i++ {
		w := mask.Select(c.rng.Intn(mask.Len()))
		mask.Remove(w)
		due := c.step + delay
		c.returns[due] = append(c.returns[due], w)
	}
}

// departBlock removes a contiguous block of available workers — a rack
// losing its uplink takes out neighboring indices at once.
func (c *churner) departBlock(mask *bitset.Set, size, delay int) {
	start := c.rng.Intn(c.n)
	due := c.step + delay
	for i := 0; i < size && mask.Len() > 1; i++ {
		w := (start + i) % c.n
		if mask.Contains(w) {
			mask.Remove(w)
			c.returns[due] = append(c.returns[due], w)
		}
	}
}

// departChosen targets members of the decoder's current chosen set, so
// every step forces a chosen-departure repair. Falls back to random
// departures when the chosen set is exhausted.
func (c *churner) departChosen(mask, chosen *bitset.Set, k, delay int) {
	victims := chosen.Clone()
	victims.IntersectWith(mask)
	for i := 0; i < k && mask.Len() > 1; i++ {
		if victims.Empty() {
			c.departRandom(mask, 1, delay)
			continue
		}
		w := victims.Select(c.rng.Intn(victims.Len()))
		victims.Remove(w)
		mask.Remove(w)
		due := c.step + delay
		c.returns[due] = append(c.returns[due], w)
	}
}

// poisson samples Poisson(mean) by Knuth's product-of-uniforms method
// (fine for the single-digit means loadgen uses).
func (c *churner) poisson(mean float64) int {
	l, threshold := 1.0, math.Exp(-mean)
	for i := 0; ; i++ {
		l *= c.rng.Float64()
		if l < threshold {
			return i
		}
	}
}

// geometric samples the number of failures before the first success of a
// Bernoulli(p) sequence.
func (c *churner) geometric(p float64) int {
	k := 0
	for c.rng.Float64() >= p {
		k++
	}
	return k
}

func heterogeneousFactors(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		// Deterministic spread in [1, 1.5): a mildly heterogeneous fleet.
		out[i] = 1 + 0.5*float64((i*2654435761)%1000)/1000
	}
	return out
}

// maxOverMask returns the latest finish time among available workers — the
// virtual wall time the master spends gathering this step.
func maxOverMask(times []time.Duration, mask *bitset.Set) time.Duration {
	var m time.Duration
	mask.Range(func(w int) bool {
		if times[w] > m {
			m = times[w]
		}
		return true
	})
	return m
}

func percentile(sorted []time.Duration, pct int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * pct / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func benchName(opts options, p *placement.Placement) string {
	name := fmt.Sprintf("BenchmarkLoadgenDecode/scheme=%s/n=%d/churn=%s", opts.scheme, p.N(), opts.churn)
	return name
}

// emit prints one line in the `go test` benchmark line grammar for the pass:
// the name, the step count, then value-unit pairs. Names never end in
// "-<digits>" after the last '/', so no reader takes a suffix for GOMAXPROCS.
func emit(out io.Writer, opts options, p *placement.Placement, res *passResult) {
	fmt.Fprintf(out, "%s/mode=%s %d %d ns/op %d p50-ns %d p95-ns %.1f steps/sec %d repairs %d fallbacks %d full-solves %.3f sim-ms-per-step %d chosen %d recovered-p50-ns %d recovered-p95-ns\n",
		benchName(opts, p), res.label, opts.steps,
		res.mean.Nanoseconds(), res.p50.Nanoseconds(), res.p95.Nanoseconds(),
		res.stepsPerSec, res.stats.Repairs, res.stats.Fallbacks, res.stats.FullSolves,
		res.simMsPerStep, res.finalChosenSize, res.recP50.Nanoseconds(), res.recP95.Nanoseconds())
}
