// Package simclock is the virtual-time cluster simulator behind the
// timing results (Fig. 11, Fig. 12(c), Fig. 12(d)). Instead of sleeping, it
// samples each worker's per-step finish time — compute (proportional to the
// number of stored partitions c, as in the paper's observation that GC's
// higher c costs compute), upload, plus the straggler delay — and reduces
// them with the master's gather policy:
//
//   - FastestW(w): the master proceeds when the w fastest workers have
//     arrived (the paper's ray.wait(w) — used by GC, IS-SGD and IS-GC);
//   - Deadline(d): the master accepts whatever arrived by the deadline
//     (the alternative policy sketched in Sec. IV).
//
// The simulated elapsed time per step is an order statistic of the n
// finish times, which preserves exactly the phenomenon the paper measures:
// who waits for whom, and for how long.
package simclock

import (
	"fmt"
	"sort"
	"time"

	"isgc/internal/bitset"
	"isgc/internal/straggler"
)

// Config describes one simulated cluster.
type Config struct {
	// N is the number of workers.
	N int
	// ComputePerPartition is the time to evaluate gradients on one
	// partition's mini-batch (a worker storing c partitions computes for
	// c × this value).
	ComputePerPartition time.Duration
	// PartitionsPerWorker is c.
	PartitionsPerWorker int
	// Upload is the time to ship the coded gradient to the master. A
	// worker uploads one coded vector regardless of c (IS-GC and GC both
	// sum c gradients into a single vector).
	Upload time.Duration
	// Profile adds the per-worker straggler delay; it must cover N
	// workers. Nil means no straggling.
	Profile *straggler.Profile
	// ComputeFactors optionally scales each worker's compute time
	// (heterogeneous fleets: factor 2.0 = a worker twice as slow at the
	// same partition count). Nil means a homogeneous fleet; otherwise the
	// slice must have N positive entries.
	ComputeFactors []float64
}

// Simulator samples per-step worker finish times. Not safe for concurrent
// use.
type Simulator struct {
	cfg Config
}

// New validates the configuration and returns a simulator.
func New(cfg Config) (*Simulator, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("simclock: need N > 0, got %d", cfg.N)
	}
	if cfg.PartitionsPerWorker <= 0 {
		return nil, fmt.Errorf("simclock: need PartitionsPerWorker > 0, got %d", cfg.PartitionsPerWorker)
	}
	if cfg.ComputePerPartition < 0 || cfg.Upload < 0 {
		return nil, fmt.Errorf("simclock: negative durations")
	}
	if cfg.Profile != nil && cfg.Profile.N() < cfg.N {
		return nil, fmt.Errorf("simclock: profile covers %d workers, need %d", cfg.Profile.N(), cfg.N)
	}
	if cfg.ComputeFactors != nil {
		if len(cfg.ComputeFactors) != cfg.N {
			return nil, fmt.Errorf("simclock: %d compute factors for %d workers", len(cfg.ComputeFactors), cfg.N)
		}
		for i, f := range cfg.ComputeFactors {
			if f <= 0 {
				return nil, fmt.Errorf("simclock: compute factor %v for worker %d must be positive", f, i)
			}
		}
	}
	return &Simulator{cfg: cfg}, nil
}

// Step samples the finish time of every worker for one training step.
func (s *Simulator) Step() []time.Duration {
	compute := time.Duration(s.cfg.PartitionsPerWorker) * s.cfg.ComputePerPartition
	out := make([]time.Duration, s.cfg.N)
	for i := range out {
		c := compute
		if s.cfg.ComputeFactors != nil {
			c = time.Duration(float64(compute) * s.cfg.ComputeFactors[i])
		}
		out[i] = c + s.cfg.Upload
		if s.cfg.Profile != nil {
			out[i] += s.cfg.Profile.Sample(i)
		}
	}
	return out
}

// FastestW returns the availability set of the w fastest workers and the
// elapsed step time (the w-th order statistic of finish times). Ties are
// broken by worker index, matching a deterministic ray.wait.
func FastestW(times []time.Duration, w int) (*bitset.Set, time.Duration, error) {
	n := len(times)
	if w <= 0 || w > n {
		return nil, 0, fmt.Errorf("simclock: need 0 < w ≤ %d, got %d", n, w)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return times[order[a]] < times[order[b]] })
	avail := bitset.New(n)
	for _, i := range order[:w] {
		avail.Add(i)
	}
	return avail, times[order[w-1]], nil
}

// Deadline returns the workers that finished by the deadline and the
// elapsed time (the deadline itself, or the last arrival when everyone
// beats it). The availability set may be empty.
func Deadline(times []time.Duration, d time.Duration) (*bitset.Set, time.Duration) {
	avail := bitset.New(len(times))
	latest := time.Duration(0)
	for i, t := range times {
		if t <= d {
			avail.Add(i)
			if t > latest {
				latest = t
			}
		}
	}
	if avail.Len() == len(times) {
		return avail, latest
	}
	return avail, d
}
