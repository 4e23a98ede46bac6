package engine

import (
	"time"

	"isgc/internal/metrics"
)

// Metrics is the in-process engine's instrument set: step wall time,
// decoder behaviour (MIS size, recovered partitions), and the live
// recovered-fraction gauge — the same vocabulary the cluster master
// exports, so dashboards read identically for simulated and real runs.
// Nil disables instrumentation; the hot path pays one branch.
type Metrics struct {
	// StepTime is the real (not simulated) wall time of one training
	// step: gradient computation, encode, decode, and update.
	StepTime *metrics.Histogram
	// MISSize observes |I|, the decoded worker set size per step — for
	// IS-GC this is the maximal independent set the decoder picked.
	MISSize *metrics.Histogram
	// PartitionsRecovered accumulates recovered partitions across steps.
	PartitionsRecovered *metrics.Counter
	// RecoveredFraction is the last step's recovered partition fraction.
	RecoveredFraction *metrics.Gauge
	// Steps counts completed steps.
	Steps *metrics.Counter
	// DecodeCacheHits and DecodeCacheMisses count decode memoization
	// outcomes (always zero unless Config.DecodeCache is enabled).
	DecodeCacheHits   *metrics.Counter
	DecodeCacheMisses *metrics.Counter
	// DecodeRepairs and DecodeFallbacks count incremental-decode outcomes
	// (always zero unless Config.IncrementalDecode is enabled).
	DecodeRepairs   *metrics.Counter
	DecodeFallbacks *metrics.Counter
}

// NewMetrics registers the engine's metric families on reg.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		StepTime: reg.NewHistogram("isgc_engine_step_seconds",
			"Real wall time of one in-process training step.",
			metrics.ExponentialBuckets(1e-5, 4, 10)),
		MISSize: reg.NewHistogram("isgc_engine_decode_mis_size",
			"Decoded worker set size |I| per step.",
			metrics.ExponentialBuckets(1, 2, 10)),
		PartitionsRecovered: reg.NewCounter("isgc_engine_partitions_recovered_total",
			"Dataset partitions recovered across all steps."),
		RecoveredFraction: reg.NewGauge("isgc_engine_recovered_fraction",
			"Fraction of dataset partitions recovered in the last step."),
		Steps: reg.NewCounter("isgc_engine_steps_total",
			"Completed training steps."),
		DecodeCacheHits: reg.NewCounter("isgc_engine_decode_cache_hits_total",
			"Decode results served from the availability-mask LRU."),
		DecodeCacheMisses: reg.NewCounter("isgc_engine_decode_cache_misses_total",
			"Decode results computed afresh and inserted into the LRU."),
		DecodeRepairs: reg.NewCounter("isgc_engine_decode_repairs_total",
			"Decode results served by incrementally repairing the previous chosen set."),
		DecodeFallbacks: reg.NewCounter("isgc_engine_decode_fallbacks_total",
			"Incremental repairs that could not be certified maximum and fell back to a fresh solve."),
	}
}

// observeStep records one step; safe on a nil receiver.
func (em *Metrics) observeStep(wall time.Duration, misSize, recovered int, frac float64) {
	if em == nil {
		return
	}
	em.StepTime.Observe(wall.Seconds())
	em.MISSize.Observe(float64(misSize))
	em.PartitionsRecovered.Add(uint64(recovered))
	em.RecoveredFraction.Set(frac)
	em.Steps.Inc()
}
