// Command isgc-master runs the training master of the TCP cluster runtime.
// Start it first, then launch n isgc-worker processes pointing at its
// address; the master trains until the loss threshold or the step cap and
// prints the per-step trace.
//
// Master and workers must agree on -n, -c, -scheme, -batch, and -seed so
// the deterministic loaders produce identical batches on partition
// replicas.
//
// With -metrics-addr the master also serves an admin endpoint: Prometheus
// metrics on /metrics, a liveness snapshot on /healthz, recent structured
// events on /debug/events, a Chrome trace on /debug/timeline, and
// profiling on /debug/pprof/. -metrics-linger keeps it up after training
// ends so the final counters can still be scraped.
//
// Observability: -events writes a JSONL event log ("-" for stderr) with
// -log-level filtering, and -timeline writes a Chrome trace-event file of
// the run (load it in ui.perfetto.dev) with per-step master spans and
// per-worker compute spans. After the run the master prints the
// straggler-attribution table: per-worker chosen/ignored deliveries and
// compute-vs-arrival latency percentiles.
//
// Example (CR(4,2), wait for the 2 fastest workers):
//
//	isgc-master -addr 127.0.0.1:7000 -n 4 -c 2 -scheme cr -w 2 -metrics-addr 127.0.0.1:9100 &
//	for i in 0 1 2 3; do isgc-worker -addr 127.0.0.1:7000 -id $i -n 4 -c 2 -scheme cr & done
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"isgc/internal/admin"
	"isgc/internal/buildinfo"
	"isgc/internal/checkpoint"
	"isgc/internal/cliconfig"
	"isgc/internal/cluster"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/isgc"
	"isgc/internal/metrics"
	"isgc/internal/model"
	"isgc/internal/trace"
)

// options collects everything run needs; flags fill one in main.
type options struct {
	addr          string
	spec          cliconfig.SchemeSpec
	data          cliconfig.DataSpec
	w             int
	deadline      time.Duration
	lr            float64
	maxSteps      int
	threshold     float64
	liveness      time.Duration
	stepTimeout   time.Duration
	decodeCache   int           // decode LRU capacity (0 disables memoization)
	decodeIncr    bool          // repair chosen sets across steps instead of re-solving
	metricsAddr   string        // empty disables the admin endpoint
	metricsLinger time.Duration // keep the admin endpoint up after the run
	eventsPath    string        // JSONL event log path ("-" = stderr; empty disables)
	logLevel      string        // minimum event level
	timelinePath  string        // Chrome trace output path (empty disables)

	checkpointDir   string        // durable run snapshots + liveness lease (empty disables)
	checkpointEvery int           // checkpoint period in steps (0 = default)
	restore         bool          // resume from the newest valid checkpoint
	standby         bool          // warm standby: wait for the primary's lease to lapse, then restore
	leaseTTL        time.Duration // primary-liveness lease TTL (0 = default 5s)
	recordsOut      string        // write the run's records/params as JSON here (empty disables)

	out io.Writer // defaults to os.Stdout
}

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7000", "listen address")
		n         = flag.Int("n", 4, "number of workers / partitions")
		c         = flag.Int("c", 2, "partitions per worker")
		scheme    = flag.String("scheme", "cr", "placement scheme: fr, cr, or hr")
		c1        = flag.Int("c1", 1, "HR upper rows (scheme=hr)")
		g         = flag.Int("g", 2, "HR group count (scheme=hr)")
		w         = flag.Int("w", 0, "workers to wait for per step (0 = all)")
		deadline  = flag.Duration("deadline", 0, "per-step gather deadline (overrides -w when > 0)")
		lr        = flag.Float64("lr", 0.2, "learning rate")
		batch     = flag.Int("batch", 8, "per-partition batch size (must match workers)")
		maxSteps  = flag.Int("steps", 200, "maximum steps")
		threshold = flag.Float64("threshold", 0.3, "loss threshold (0 disables)")
		seed      = flag.Int64("seed", 42, "shared seed (must match workers)")
		samples   = flag.Int("samples", 240, "synthetic dataset size (must match workers)")

		decodeCache = flag.Int("decode-cache", 0, "memoize decode results in an LRU of this many availability masks (0 disables; trades decode fairness for speed)")
		decodeIncr  = flag.Bool("decode-incremental", false, "repair the previous step's chosen set against availability deltas instead of re-solving (trades decode fairness for latency)")
		liveness    = flag.Duration("liveness", 15*time.Second, "declare a worker dead after this much silence (negative disables)")
		stepTimeout = flag.Duration("step-timeout", 0, "bound one step's gather even with live workers (0 disables)")

		metricsAddr   = flag.String("metrics-addr", "", "serve /metrics, /healthz, /debug/pprof on this address (empty disables)")
		metricsLinger = flag.Duration("metrics-linger", 0, "keep the metrics endpoint up this long after training ends (SIGINT/SIGTERM end it early)")

		eventsPath   = flag.String("events", "", "write a JSONL structured event log to this path (\"-\" = stderr)")
		logLevel     = flag.String("log-level", "info", "minimum event level: debug, info, warn, or error")
		timelinePath = flag.String("timeline", "", "write a Chrome trace-event file of the run to this path (load in ui.perfetto.dev)")

		checkpointDir   = flag.String("checkpoint-dir", "", "persist durable run snapshots (and the liveness lease) in this directory (empty disables)")
		checkpointEvery = flag.Int("checkpoint-every", 10, "checkpoint period in steps")
		restore         = flag.Bool("restore", false, "resume from the newest valid checkpoint in -checkpoint-dir (cold-starts when the directory is empty)")
		standby         = flag.Bool("standby", false, "warm standby: wait for the primary's lease in -checkpoint-dir to lapse, then restore and take over")
		leaseTTL        = flag.Duration("lease-ttl", 5*time.Second, "primary-liveness lease TTL; a standby takes over after the lease is this stale")
		recordsOut      = flag.String("records-out", "", "write the run's step records and final params as JSON to this path (empty disables)")

		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}
	spec := cliconfig.SchemeSpec{Scheme: *scheme, N: *n, C: *c, C1: *c1, G: *g}
	data := cliconfig.DefaultData(*seed)
	data.Samples = *samples
	data.Batch = *batch
	err := run(options{
		addr:          *addr,
		spec:          spec,
		data:          data,
		w:             *w,
		deadline:      *deadline,
		lr:            *lr,
		maxSteps:      *maxSteps,
		threshold:     *threshold,
		liveness:      *liveness,
		stepTimeout:   *stepTimeout,
		decodeCache:   *decodeCache,
		decodeIncr:    *decodeIncr,
		metricsAddr:   *metricsAddr,
		metricsLinger: *metricsLinger,
		eventsPath:    *eventsPath,
		logLevel:      *logLevel,
		timelinePath:  *timelinePath,

		checkpointDir:   *checkpointDir,
		checkpointEvery: *checkpointEvery,
		restore:         *restore,
		standby:         *standby,
		leaseTTL:        *leaseTTL,
		recordsOut:      *recordsOut,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "isgc-master:", err)
		os.Exit(1)
	}
}

func run(opts options) error {
	out := opts.out
	if out == nil {
		out = os.Stdout
	}
	p, err := opts.spec.Build()
	if err != nil {
		return err
	}
	st, err := engine.NewISGC(isgc.New(p, opts.data.Seed))
	if err != nil {
		return err
	}
	data, err := opts.data.BuildDataset()
	if err != nil {
		return err
	}
	w := opts.w
	if w <= 0 {
		w = opts.spec.N
	}

	var mm *cluster.MasterMetrics
	var reg *metrics.Registry
	if opts.metricsAddr != "" {
		reg = metrics.NewRegistry()
		mm = cluster.NewMasterMetrics(reg)
	}
	// The event log exists when requested explicitly or when the admin
	// endpoint needs a ring to serve on /debug/events; otherwise it stays
	// nil and instrumentation costs one branch per call site.
	var ev *events.Log
	if opts.eventsPath != "" || opts.metricsAddr != "" {
		log, closer, err := cliconfig.OpenEventLog(opts.eventsPath, opts.logLevel)
		if err != nil {
			return err
		}
		if closer != nil {
			defer closer.Close()
		}
		ev = log
	}
	var tl *events.Timeline
	if opts.timelinePath != "" || opts.metricsAddr != "" {
		tl = events.NewTimeline(0)
	}

	var store *checkpoint.Store
	if opts.checkpointDir != "" {
		var err error
		store, err = checkpoint.NewStore(opts.checkpointDir, checkpoint.DefaultRetain)
		if err != nil {
			return err
		}
	}

	// SIGINT/SIGTERM trigger a graceful shutdown: the master winds down at
	// the next step boundary, writes a final resumable checkpoint, and the
	// process exits 0 with the fleet left running for a successor.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	stopCh := make(chan struct{})
	go func() {
		<-sigCh
		close(stopCh)
	}()

	restore := opts.restore
	if opts.standby {
		if store == nil {
			return fmt.Errorf("-standby needs -checkpoint-dir")
		}
		fmt.Fprintf(out, "standby: watching %s for the primary's lease to lapse (ttl=%v)\n",
			opts.checkpointDir, opts.leaseTTL)
		if err := cluster.WaitForTakeover(store, opts.leaseTTL, stopCh, ev); err != nil {
			if errors.Is(err, cluster.ErrStandbyStopped) {
				fmt.Fprintln(out, "standby: stopped before takeover")
				return nil
			}
			return err
		}
		fmt.Fprintln(out, "standby: taking over as primary")
		restore = true
	}

	master, err := cluster.NewMaster(cluster.MasterConfig{
		Addr:              opts.addr,
		Strategy:          st,
		Model:             model.SoftmaxRegression{Features: opts.data.Features, Classes: opts.data.Classes},
		Data:              data,
		LearningRate:      opts.lr,
		W:                 w,
		Deadline:          opts.deadline,
		MaxSteps:          opts.maxSteps,
		LossThreshold:     opts.threshold,
		Seed:              opts.data.Seed,
		LivenessTimeout:   opts.liveness,
		StepTimeout:       opts.stepTimeout,
		DecodeCache:       opts.decodeCache,
		IncrementalDecode: opts.decodeIncr,
		Metrics:           mm,
		Events:            ev,
		Timeline:          tl,
		Checkpoint:        store,
		CheckpointEvery:   opts.checkpointEvery,
		Restore:           restore,
		LeaseTTL:          opts.leaseTTL,
	})
	if err != nil {
		return err
	}
	go func() {
		<-stopCh
		master.Stop()
	}()
	if opts.metricsAddr != "" {
		adm := admin.New(admin.Config{
			Addr:     opts.metricsAddr,
			Registry: reg,
			Health:   func() any { return master.Health() },
			Events:   ev,
			Timeline: tl,
		})
		if err := adm.Start(); err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer func() {
			if opts.metricsLinger > 0 {
				// SIGINT/SIGTERM end the linger early: signal.Notify still
				// holds both, so they would otherwise do nothing.
				fmt.Fprintf(out, "metrics: lingering %v on %s\n", opts.metricsLinger, adm.URL())
				select {
				case <-time.After(opts.metricsLinger):
				case <-stopCh:
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = adm.Shutdown(ctx)
		}()
		fmt.Fprintf(out, "metrics: %s/metrics (healthz, debug/pprof alongside)\n", adm.URL())
	}

	fmt.Fprintf(out, "master: %s on %s, waiting for %d workers (w=%d per step, deadline=%v, liveness=%v)\n",
		p, master.Addr(), opts.spec.N, w, opts.deadline, opts.liveness)
	res, err := master.Run()
	if opts.timelinePath != "" {
		// Written even on a failed run: a trace of what happened before the
		// failure is exactly what the operator wants to look at.
		if werr := tl.WriteFile(opts.timelinePath); werr != nil {
			fmt.Fprintf(out, "timeline: %v\n", werr)
		} else {
			fmt.Fprintf(out, "timeline: wrote %s, %d spans dropped at the cap (load in ui.perfetto.dev)\n",
				opts.timelinePath, tl.Dropped())
		}
	}
	if err != nil {
		return err
	}
	if opts.recordsOut != "" {
		if werr := writeRecords(opts.recordsOut, res); werr != nil {
			fmt.Fprintf(out, "records-out: %v\n", werr)
		}
	}
	for _, rec := range res.Run.Records {
		mark := ""
		if rec.Degraded {
			mark = " DEGRADED"
		}
		fmt.Fprintf(out, "step %3d: avail=%d alive=%d recovered=%.2f loss=%.4f elapsed=%v%s\n",
			rec.Step, rec.Available, rec.Alive, rec.RecoveredFraction, rec.Loss, rec.Elapsed, mark)
	}
	if res.Interrupted {
		fmt.Fprintf(out, "interrupted: %d steps recorded this life; resumable checkpoint in %s (restart with -restore)\n",
			res.Run.Steps(), opts.checkpointDir)
		return nil
	}
	// The latency line prefers the histogram estimate when metrics are on
	// — the same digest /healthz serves — and falls back to exact order
	// statistics over the retained trace records.
	lat := res.Run.LatencySummary()
	if hl, ok := mm.LatencySummary(); ok {
		lat = hl
	}
	fmt.Fprintf(out, "latency: %v\n", lat)
	fmt.Fprint(out, master.AttributionReport().Table().String())
	fmt.Fprintf(out, "done: steps=%d converged=%v final_loss=%.4f total=%v degraded_steps=%d rejoins=%d malformed=%d\n",
		res.Run.Steps(), res.Converged, res.Run.FinalLoss(), res.Run.TotalTime(),
		res.Run.DegradedSteps(), master.Rejoins(), master.MalformedGradients())
	return nil
}

// runDump is the -records-out JSON shape: everything a crash-equivalence
// harness needs to compare two lives of one run.
type runDump struct {
	Records     []trace.StepRecord `json:"records"`
	Params      []float64          `json:"params"`
	Steps       int                `json:"steps"`
	Converged   bool               `json:"converged"`
	Interrupted bool               `json:"interrupted"`
}

func writeRecords(path string, res *engine.Result) error {
	b, err := json.Marshal(runDump{
		Records:     res.Run.Records,
		Params:      res.Params,
		Steps:       res.Run.Steps(),
		Converged:   res.Converged,
		Interrupted: res.Interrupted,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
