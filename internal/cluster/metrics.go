// Observability for the cluster runtime: the metric families a master or
// worker process exports on /metrics, and the health snapshots it serves
// on /healthz. The instrument sets are plain structs of nil-safe metrics
// — a nil *MasterMetrics / *WorkerMetrics disables instrumentation with
// zero changes to the hot paths.
package cluster

import (
	"strconv"
	"time"

	"isgc/internal/metrics"
	"isgc/internal/trace"
)

// MasterMetrics is the master's instrument set. Create one per master
// process with NewMasterMetrics and pass it in MasterConfig.Metrics; a
// MasterMetrics must not be shared between masters (the bound gauge
// functions would double-register).
type MasterMetrics struct {
	reg *metrics.Registry

	// GatherLatency is the per-step gather time — the paper's
	// per-iteration completion time (Fig. 12) observed live.
	GatherLatency *metrics.Histogram
	// Steps counts completed training steps.
	Steps *metrics.Counter
	// DegradedSteps counts steps whose gather target shrank below the
	// configured one because too few workers were alive.
	DegradedSteps *metrics.Counter
	// RecoveredFraction is the last step's recovered partition fraction —
	// the Fig. 11 quantity as a live gauge.
	RecoveredFraction *metrics.Gauge
	// Rejoins counts mid-run re-registrations.
	Rejoins *metrics.Counter
	// Evictions counts connections the master closed on liveness timeout
	// or send failure.
	Evictions *metrics.Counter
	// Malformed counts gradient envelopes rejected before decoding.
	Malformed *metrics.Counter
	// SentBytes counts every byte broadcast to workers.
	SentBytes *metrics.Counter
	// AcceptedGradients counts gathered gradients per worker — the live
	// view of ArrivalCounts.
	AcceptedGradients *metrics.CounterVec
	// WorkerAlive is 1/0 per worker id.
	WorkerAlive *metrics.GaugeVec
	// DecodeCacheHits and DecodeCacheMisses count availability-mask LRU
	// outcomes (zero unless MasterConfig.DecodeCache is enabled).
	DecodeCacheHits   *metrics.Counter
	DecodeCacheMisses *metrics.Counter
	// DecodeRepairs and DecodeFallbacks count incremental-decode outcomes
	// (zero unless MasterConfig.IncrementalDecode is enabled).
	DecodeRepairs   *metrics.Counter
	DecodeFallbacks *metrics.Counter
	// ComputeShards is the size of the master's loss-evaluation pool.
	ComputeShards *metrics.Gauge
	// CheckpointWrites/CheckpointBytes/CheckpointErrors count durable
	// checkpoint activity; RestoreSkipped counts corrupt files skipped
	// during restore (a nonzero value means the directory has torn or
	// bit-rotted checkpoints).
	CheckpointWrites *metrics.Counter
	CheckpointBytes  *metrics.Counter
	CheckpointErrors *metrics.Counter
	RestoreSkipped   *metrics.Counter
	// LastCheckpointStep is the step of the newest durable checkpoint
	// (-1 until the first write).
	LastCheckpointStep *metrics.Gauge
	// FoldedGradients counts straggler gradients folded into a later
	// step's parameters as a staleness correction (zero unless the master
	// runs with -staleness > 0).
	FoldedGradients *metrics.Counter
}

// NewMasterMetrics registers the master's metric families on reg.
func NewMasterMetrics(reg *metrics.Registry) *MasterMetrics {
	return &MasterMetrics{
		reg: reg,
		GatherLatency: reg.NewHistogram("isgc_master_gather_latency_seconds",
			"Per-step gather latency: broadcast to decode-ready.", metrics.DefBuckets),
		Steps: reg.NewCounter("isgc_master_steps_total",
			"Completed training steps."),
		DegradedSteps: reg.NewCounter("isgc_master_degraded_steps_total",
			"Steps gathered with a degraded (shrunken) wait target."),
		RecoveredFraction: reg.NewGauge("isgc_master_recovered_fraction",
			"Fraction of dataset partitions recovered in the last step."),
		Rejoins: reg.NewCounter("isgc_master_rejoins_total",
			"Mid-run worker re-registrations accepted."),
		Evictions: reg.NewCounter("isgc_master_evicted_connections_total",
			"Worker connections closed on liveness timeout or send failure."),
		Malformed: reg.NewCounter("isgc_master_malformed_gradients_total",
			"Gradient envelopes rejected before decoding."),
		SentBytes: reg.NewCounter("isgc_master_sent_bytes_total",
			"Bytes broadcast to workers."),
		AcceptedGradients: reg.NewCounterVec("isgc_master_accepted_gradients_total",
			"Gradients gathered before the per-step cut-off, per worker.", "worker"),
		WorkerAlive: reg.NewGaugeVec("isgc_master_worker_alive",
			"Per-worker liveness (1 = alive).", "worker"),
		DecodeRepairs: reg.NewCounter("isgc_master_decode_repairs_total",
			"Decode results served by incrementally repairing the previous chosen set."),
		DecodeFallbacks: reg.NewCounter("isgc_master_decode_fallbacks_total",
			"Incremental repairs that fell back to a fresh solve."),
		DecodeCacheHits: reg.NewCounter("isgc_master_decode_cache_hits_total",
			"Decode results served from the availability-mask LRU."),
		DecodeCacheMisses: reg.NewCounter("isgc_master_decode_cache_misses_total",
			"Decode results computed afresh and inserted into the LRU."),
		ComputeShards: reg.NewGauge("isgc_master_compute_shards",
			"Size of the master's loss-evaluation compute pool."),
		CheckpointWrites: reg.NewCounter("isgc_master_checkpoint_writes_total",
			"Durable checkpoints written."),
		CheckpointBytes: reg.NewCounter("isgc_master_checkpoint_bytes_total",
			"Bytes written as durable checkpoints."),
		CheckpointErrors: reg.NewCounter("isgc_master_checkpoint_errors_total",
			"Checkpoint writes that failed."),
		RestoreSkipped: reg.NewCounter("isgc_master_checkpoint_restore_skipped_total",
			"Corrupt or unreadable checkpoint files skipped during restore."),
		LastCheckpointStep: reg.NewGauge("isgc_master_last_checkpoint_step",
			"Step of the newest durable checkpoint (-1 before the first)."),
		FoldedGradients: reg.NewCounter("isgc_master_folded_gradients_total",
			"Straggler gradients folded into a later step as a staleness correction."),
	}
}

// bind registers the gauge functions that are views over live master
// state; called once from NewMaster.
func (mm *MasterMetrics) bind(m *Master) {
	if mm == nil || mm.reg == nil {
		return
	}
	mm.reg.NewGaugeFunc("isgc_master_alive_workers",
		"Workers with a live connection.",
		func() float64 { return float64(m.countAlive()) })
	mm.reg.NewGaugeFunc("isgc_master_max_heartbeat_age_seconds",
		"Age of the stalest alive worker's last message.",
		m.maxHeartbeatAge)
}

// The nil-safe observation helpers below are the only metrics surface the
// master's hot paths touch; with mm == nil each is a single branch.

func (mm *MasterMetrics) observeStep(elapsed time.Duration, frac float64, degraded bool) {
	if mm == nil {
		return
	}
	mm.GatherLatency.Observe(elapsed.Seconds())
	mm.Steps.Inc()
	mm.RecoveredFraction.Set(frac)
	if degraded {
		mm.DegradedSteps.Inc()
	}
}

func (mm *MasterMetrics) markCheckpointWrite(bytes int64, step int) {
	if mm != nil {
		mm.CheckpointWrites.Inc()
		mm.CheckpointBytes.Add(uint64(bytes))
		mm.LastCheckpointStep.Set(float64(step))
	}
}

func (mm *MasterMetrics) markCheckpointError() {
	if mm != nil {
		mm.CheckpointErrors.Inc()
	}
}

func (mm *MasterMetrics) markRestoreSkipped() {
	if mm != nil {
		mm.RestoreSkipped.Inc()
	}
}

func (mm *MasterMetrics) markRejoin() {
	if mm != nil {
		mm.Rejoins.Inc()
	}
}

func (mm *MasterMetrics) markEviction() {
	if mm != nil {
		mm.Evictions.Inc()
	}
}

func (mm *MasterMetrics) markFolded() {
	if mm != nil {
		mm.FoldedGradients.Inc()
	}
}

func (mm *MasterMetrics) markMalformed() {
	if mm != nil {
		mm.Malformed.Inc()
	}
}

func (mm *MasterMetrics) markAccepted(worker int) {
	if mm != nil {
		mm.AcceptedGradients.With(strconv.Itoa(worker)).Inc()
	}
}

func (mm *MasterMetrics) setWorkerAlive(worker int, alive bool) {
	if mm == nil {
		return
	}
	v := 0.0
	if alive {
		v = 1
	}
	mm.WorkerAlive.With(strconv.Itoa(worker)).Set(v)
}

// sentCounter returns the byte counter for outbound connections (nil when
// metrics are disabled, which skips the counting writer entirely).
func (mm *MasterMetrics) sentCounter() *metrics.Counter {
	if mm == nil {
		return nil
	}
	return mm.SentBytes
}

// WorkerMetrics is the worker's instrument set; pass it in
// WorkerConfig.Metrics (nil disables instrumentation).
type WorkerMetrics struct {
	// ComputeTime is the per-step local gradient computation time.
	ComputeTime *metrics.Histogram
	// Steps counts steps served (computed, whether or not uploaded).
	Steps *metrics.Counter
	// StepsAbandoned counts steps given up before their upload started
	// because a newer broadcast (or stop) made them moot, by the point of
	// abandonment: "queued" (never computed), "delay" (injected delay cut
	// short) or "presend" (computed, not uploaded).
	StepsAbandoned *metrics.CounterVec
	// SentBytes counts every byte written to the master connection —
	// dominated by gradient uploads.
	SentBytes *metrics.Counter
	// ReconnectAttempts counts redials (successful or not).
	ReconnectAttempts *metrics.Counter
	// Reconnects counts successful re-registrations.
	Reconnects *metrics.Counter
	// DroppedUploads counts uploads lost to injected drop faults.
	DroppedUploads *metrics.Counter
	// Connected is 1 while the worker holds a registered connection.
	Connected *metrics.Gauge
	// ComputeShards is the size of the worker's gradient compute pool.
	ComputeShards *metrics.Gauge
	// SubFrames is never set and reads zero: every upload is one whole
	// frame. It stays only for readers that still add it to the frame
	// count; delete it with the last of them.
	SubFrames *metrics.Counter
}

// decodeCacheHooks returns the hit/miss callbacks for the strategy's
// decode cache (nils when metrics are disabled).
func (mm *MasterMetrics) decodeCacheHooks() (onHit, onMiss func()) {
	if mm == nil {
		return nil, nil
	}
	return mm.DecodeCacheHits.Inc, mm.DecodeCacheMisses.Inc
}

// incrementalDecodeHooks returns the repair/fallback callbacks for the
// strategy's incremental decoder (nils when metrics are disabled).
func (mm *MasterMetrics) incrementalDecodeHooks() (onRepair, onFallback func()) {
	if mm == nil {
		return nil, nil
	}
	return mm.DecodeRepairs.Inc, mm.DecodeFallbacks.Inc
}

func (mm *MasterMetrics) setComputeShards(par int) {
	if mm != nil {
		mm.ComputeShards.Set(float64(par))
	}
}

// NewWorkerMetrics registers the worker's metric families on reg.
func NewWorkerMetrics(reg *metrics.Registry) *WorkerMetrics {
	return &WorkerMetrics{
		ComputeTime: reg.NewHistogram("isgc_worker_compute_seconds",
			"Per-step local gradient computation time.", metrics.DefBuckets),
		Steps: reg.NewCounter("isgc_worker_steps_total",
			"Steps served (gradient computed)."),
		StepsAbandoned: reg.NewCounterVec("isgc_worker_steps_abandoned_total",
			"Steps abandoned before upload because a newer broadcast or stop superseded them.", "phase"),
		SentBytes: reg.NewCounter("isgc_worker_sent_bytes_total",
			"Bytes written to the master connection (uploads dominate)."),
		ReconnectAttempts: reg.NewCounter("isgc_worker_reconnect_attempts_total",
			"Redial attempts after a lost connection."),
		Reconnects: reg.NewCounter("isgc_worker_reconnects_total",
			"Successful re-registrations."),
		DroppedUploads: reg.NewCounter("isgc_worker_dropped_uploads_total",
			"Uploads lost to injected drop faults."),
		Connected: reg.NewGauge("isgc_worker_connected",
			"1 while registered with the master."),
		ComputeShards: reg.NewGauge("isgc_worker_compute_shards",
			"Size of the worker's gradient compute pool."),
	}
}

func (wm *WorkerMetrics) setComputeShards(par int) {
	if wm != nil {
		wm.ComputeShards.Set(float64(par))
	}
}

func (wm *WorkerMetrics) observeCompute(elapsed time.Duration) {
	if wm != nil {
		wm.ComputeTime.Observe(elapsed.Seconds())
	}
}

func (wm *WorkerMetrics) markStep() {
	if wm != nil {
		wm.Steps.Inc()
	}
}

func (wm *WorkerMetrics) markAbandoned(phase string) {
	if wm != nil {
		wm.StepsAbandoned.With(phase).Inc()
	}
}

func (wm *WorkerMetrics) markDrop() {
	if wm != nil {
		wm.DroppedUploads.Inc()
	}
}

func (wm *WorkerMetrics) markReconnectAttempt() {
	if wm != nil {
		wm.ReconnectAttempts.Inc()
	}
}

func (wm *WorkerMetrics) markReconnect() {
	if wm != nil {
		wm.Reconnects.Inc()
	}
}

func (wm *WorkerMetrics) setConnected(up bool) {
	if wm == nil {
		return
	}
	v := 0.0
	if up {
		v = 1
	}
	wm.Connected.Set(v)
}

func (wm *WorkerMetrics) sentCounter() *metrics.Counter {
	if wm == nil {
		return nil
	}
	return wm.SentBytes
}

// Health snapshots ---------------------------------------------------------

// WorkerHealthView is one worker's liveness entry in the master's
// /healthz payload.
type WorkerHealthView struct {
	ID    int  `json:"id"`
	Alive bool `json:"alive"`
	// LastSeenAgeSeconds is the age of the last message received from the
	// worker; -1 when it never registered.
	LastSeenAgeSeconds float64 `json:"last_seen_age_seconds"`
	// Generation counts (re-)registrations; -1 when it never registered.
	Generation int `json:"generation"`
	// AcceptedSteps counts the steps that gathered this worker's gradient.
	AcceptedSteps int64 `json:"accepted_steps"`
}

// MasterHealth is the master's /healthz payload: per-worker liveness plus
// the degraded-step summary.
type MasterHealth struct {
	Running            bool  `json:"running"`
	Step               int   `json:"step"`
	AliveWorkers       int   `json:"alive_workers"`
	DegradedSteps      int   `json:"degraded_steps"`
	Rejoins            int   `json:"rejoins"`
	MalformedGradients int64 `json:"malformed_gradients"`
	// Generation counts this master's lives for the run: 0 cold start,
	// +1 per checkpoint restore or standby failover.
	Generation int `json:"generation"`
	// LastCheckpointStep is the step of the newest durable checkpoint
	// (-1 before any); LastCheckpointAgeSeconds its age (-1 before any).
	LastCheckpointStep       int     `json:"last_checkpoint_step"`
	LastCheckpointAgeSeconds float64 `json:"last_checkpoint_age_seconds"`
	// GatherP50Seconds / GatherP95Seconds are bucket-estimated quantiles
	// of the lifetime gather-latency histogram (0 when metrics are
	// disabled or before the first step) — the estimator the CLI's
	// printed latency line and Prometheus's histogram_quantile use.
	GatherP50Seconds float64            `json:"gather_p50_seconds"`
	GatherP95Seconds float64            `json:"gather_p95_seconds"`
	Workers          []WorkerHealthView `json:"workers"`
}

// gatherQuantiles returns the estimated p50/p95 of the gather-latency
// histogram (zeros with metrics disabled or no observations yet).
func (mm *MasterMetrics) gatherQuantiles() (p50, p95 float64) {
	if mm == nil {
		return 0, 0
	}
	snap := mm.GatherLatency.Snapshot()
	if snap.Count == 0 {
		return 0, 0
	}
	return snap.Quantile(0.50), snap.Quantile(0.95)
}

// LatencySummary estimates the run's step-latency order statistics from
// the gather-latency histogram — the same quantity trace.LatencySummary
// computes exactly from retained records, available here without keeping
// every sample. ok is false with metrics disabled or no observations.
func (mm *MasterMetrics) LatencySummary() (trace.LatencySummary, bool) {
	if mm == nil {
		return trace.LatencySummary{}, false
	}
	snap := mm.GatherLatency.Snapshot()
	if snap.Count == 0 {
		return trace.LatencySummary{}, false
	}
	toDur := func(p float64) time.Duration {
		return time.Duration(snap.Quantile(p) * float64(time.Second))
	}
	return trace.LatencySummary{P50: toDur(0.50), P95: toDur(0.95), P99: toDur(0.99)}, true
}

// WorkerHealth is the worker's /healthz payload.
type WorkerHealth struct {
	ID          int   `json:"id"`
	Connected   bool  `json:"connected"`
	StepsServed int64 `json:"steps_served"`
	// Abandoned counts steps given up before upload because a newer
	// broadcast or stop superseded them.
	Abandoned  int64 `json:"steps_abandoned"`
	Reconnects int64 `json:"reconnects"`
}
