package trace

import (
	"fmt"
	"sync"
	"time"
)

// maxAttrSamples caps the per-worker sample history so an unbounded run
// cannot grow the attribution state without limit. 8192 steps of history
// per worker is far beyond every experiment in this repository; once the
// cap is hit, further samples still update the chosen/ignored counters
// but are not retained for the percentile estimates.
const maxAttrSamples = 8192

// ArrivalSample is one worker's gradient delivery for one step, split
// into the two phases the master can attribute: how long the worker said
// the compute took, and how long the whole round trip took from the step
// broadcast until the gradient arrived at the master. Arrival − Compute
// is the overhead the network and queueing added.
type ArrivalSample struct {
	Worker int
	Step   int
	// Compute is the worker-reported gradient computation time
	// (0 = the worker did not report timing, e.g. an old binary).
	Compute time.Duration
	// Arrival is broadcast → gradient receipt, measured on the master's
	// clock. Immune to cross-machine clock skew, unlike the compute
	// start stamp.
	Arrival time.Duration
}

// Attribution accumulates arrival samples per worker and reduces them to
// the straggler-attribution report: who was slow, and was it compute or
// the network. It is race-safe and nil-receiver-safe so instrumentation
// call sites need no guards.
type Attribution struct {
	mu      sync.Mutex
	chosen  []int
	ignored []int
	samples [][]ArrivalSample
}

// NewAttribution returns an attribution accumulator for n workers.
func NewAttribution(n int) *Attribution {
	return &Attribution{
		chosen:  make([]int, n),
		ignored: make([]int, n),
		samples: make([][]ArrivalSample, n),
	}
}

// ObserveAccepted records a gradient the master gathered before the
// cut-off.
func (a *Attribution) ObserveAccepted(s ArrivalSample) {
	if a == nil || s.Worker < 0 || s.Worker >= len(a.chosen) {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.chosen[s.Worker]++
	if len(a.samples[s.Worker]) < maxAttrSamples {
		a.samples[s.Worker] = append(a.samples[s.Worker], s)
	}
}

// ObserveIgnored records a gradient that arrived but was not used —
// for an earlier step, duplicate, or past the gather cut-off. The
// sample is retained for the latency percentiles: a worker the gather
// always skips is precisely the one whose arrival profile the report
// must still show.
func (a *Attribution) ObserveIgnored(s ArrivalSample) {
	if a == nil || s.Worker < 0 || s.Worker >= len(a.ignored) {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ignored[s.Worker]++
	if len(a.samples[s.Worker]) < maxAttrSamples {
		a.samples[s.Worker] = append(a.samples[s.Worker], s)
	}
}

// WorkerAttribution summarizes one worker's deliveries.
type WorkerAttribution struct {
	Worker int
	// Chosen counts gradients gathered before the cut-off; Ignored counts
	// arrivals the master discarded (an earlier step's, duplicate, or late).
	Chosen  int
	Ignored int
	// Compute percentiles of the worker-reported gradient computation
	// time (zero when the worker never reported timing).
	ComputeP50 time.Duration
	ComputeP95 time.Duration
	// Arrival percentiles of broadcast → receipt on the master's clock.
	ArrivalP50 time.Duration
	ArrivalP95 time.Duration
	// OverheadP50 is the median of Arrival − Compute per sample: the
	// network + queueing share of the round trip.
	OverheadP50 time.Duration
	// ComputeShare is ComputeP50 / ArrivalP50 (0 when undefined): near 1
	// means the worker is compute-bound, near 0 means delivery-bound.
	ComputeShare float64
}

// AttributionReport is the per-worker straggler attribution of one run.
type AttributionReport struct {
	Workers []WorkerAttribution
}

// Report reduces the accumulated samples. Safe to call mid-run; the
// report reflects deliveries observed so far.
func (a *Attribution) Report() AttributionReport {
	if a == nil {
		return AttributionReport{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := AttributionReport{Workers: make([]WorkerAttribution, len(a.chosen))}
	for w := range a.chosen {
		wa := WorkerAttribution{Worker: w, Chosen: a.chosen[w], Ignored: a.ignored[w]}
		ss := a.samples[w]
		if len(ss) > 0 {
			compute := make([]float64, 0, len(ss))
			arrival := make([]float64, 0, len(ss))
			overhead := make([]float64, 0, len(ss))
			for _, s := range ss {
				// Zero fields mean "unmeasured" (a worker that reported no
				// timing, or an earlier step's gradient with no
				// current-step baseline); they count above but must not drag the
				// percentiles toward 0.
				if s.Compute > 0 {
					compute = append(compute, float64(s.Compute))
				}
				if s.Arrival > 0 {
					arrival = append(arrival, float64(s.Arrival))
				}
				if s.Compute > 0 && s.Arrival > 0 {
					overhead = append(overhead, max(float64(s.Arrival-s.Compute), 0))
				}
			}
			wa.ArrivalP50 = time.Duration(Percentile(arrival, 50))
			wa.ArrivalP95 = time.Duration(Percentile(arrival, 95))
			if len(compute) > 0 {
				wa.ComputeP50 = time.Duration(Percentile(compute, 50))
				wa.ComputeP95 = time.Duration(Percentile(compute, 95))
				wa.OverheadP50 = time.Duration(Percentile(overhead, 50))
				if wa.ArrivalP50 > 0 {
					wa.ComputeShare = float64(wa.ComputeP50) / float64(wa.ArrivalP50)
				}
			}
		}
		rep.Workers[w] = wa
	}
	return rep
}

// Table renders the report as the operator-facing attribution table.
func (r AttributionReport) Table() *Table {
	t := NewTable("straggler attribution (per worker)",
		"worker", "chosen", "ignored", "compute p50", "compute p95",
		"arrival p50", "arrival p95", "overhead p50", "compute share")
	for _, w := range r.Workers {
		share := "-"
		if w.ComputeShare > 0 {
			share = fmt.Sprintf("%.2f", w.ComputeShare)
		}
		t.AddRow(w.Worker, w.Chosen, w.Ignored,
			roundAttr(w.ComputeP50), roundAttr(w.ComputeP95),
			roundAttr(w.ArrivalP50), roundAttr(w.ArrivalP95),
			roundAttr(w.OverheadP50), share)
	}
	return t
}

// roundAttr renders sub-millisecond latencies without collapsing them to
// "0s" the way the table's default millisecond rounding would.
func roundAttr(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(time.Microsecond).String()
}
