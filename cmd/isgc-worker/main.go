// Command isgc-worker runs one worker of the TCP cluster runtime. It must
// agree with the master on -n, -c, -scheme, -batch, -samples, and -seed so
// partition replicas see identical mini-batches (the paper's controlled-
// seed requirement for summable coded gradients).
//
// A straggler can be simulated with -delay, e.g. -delay 500ms makes this
// worker sleep ~Exp(500ms) before every upload. Worker *death* is simulated
// with the fault flags: -crash-at kills the worker at a step, -drop-prob
// loses each upload with a probability, and -disconnect-at tears the
// connection down once (the worker then redials within -reconnect and
// re-registers). Heartbeats (-heartbeat) let the master tell a slow worker
// from a hung one.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"isgc/internal/admin"
	"isgc/internal/buildinfo"
	"isgc/internal/checkpoint"
	"isgc/internal/cliconfig"
	"isgc/internal/cluster"
	"isgc/internal/events"
	"isgc/internal/metrics"
	"isgc/internal/model"
	"isgc/internal/straggler"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7000", "master address")
		id         = flag.Int("id", 0, "worker id in [0, n)")
		n          = flag.Int("n", 4, "number of workers / partitions")
		c          = flag.Int("c", 2, "partitions per worker")
		scheme     = flag.String("scheme", "cr", "placement scheme: fr, cr, or hr")
		c1         = flag.Int("c1", 1, "HR upper rows (scheme=hr)")
		g          = flag.Int("g", 2, "HR group count (scheme=hr)")
		batch      = flag.Int("batch", 8, "per-partition batch size (must match master)")
		seed       = flag.Int64("seed", 42, "shared seed (must match master)")
		samples    = flag.Int("samples", 240, "synthetic dataset size (must match master)")
		delay      = flag.Duration("delay", 0, "mean of an exponential straggler delay before each upload (0 = none)")
		computePar = flag.Int("compute-par", 0, "gradient compute shards (0 = auto/GOMAXPROCS, 1 = sequential)")

		crashAt      = flag.Int("crash-at", -1, "crash (die permanently) at this step (-1 = never)")
		dropProb     = flag.Float64("drop-prob", 0, "probability of losing each step's gradient upload")
		disconnectAt = flag.Int("disconnect-at", -1, "tear the connection down at this step and rejoin (-1 = never)")
		reconnect    = flag.Duration("reconnect", 10*time.Second, "redial budget after a lost connection (0 disables rejoin)")
		heartbeat    = flag.Duration("heartbeat", time.Second, "liveness ping interval (negative disables)")
		metricsAddr  = flag.String("metrics-addr", "", "serve /metrics, /healthz, /debug/pprof on this address (empty disables)")

		eventsPath = flag.String("events", "", "write a JSONL structured event log to this path (\"-\" = stderr)")
		logLevel   = flag.String("log-level", "info", "minimum event level: debug, info, warn, or error")

		checkpointDir = flag.String("checkpoint-dir", "", "persist this worker's resumable state under <dir>/worker-<id> on graceful shutdown (empty disables; may be shared with the master's -checkpoint-dir)")
		restore       = flag.Bool("restore", false, "resume RNG streams and step counter from the checkpoint before registering")

		version = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}
	spec := cliconfig.SchemeSpec{Scheme: *scheme, N: *n, C: *c, C1: *c1, G: *g}
	dspec := cliconfig.DefaultData(*seed)
	dspec.Samples = *samples
	dspec.Batch = *batch
	fault := buildFault(*crashAt, *dropProb, *disconnectAt)
	if err := run(*addr, *id, spec, dspec, *delay, *computePar, fault, *reconnect, *heartbeat, *metricsAddr, *eventsPath, *logLevel, *checkpointDir, *restore); err != nil {
		fmt.Fprintln(os.Stderr, "isgc-worker:", err)
		os.Exit(1)
	}
}

// buildFault assembles the fault model the flags describe (nil when the
// worker is healthy).
func buildFault(crashAt int, dropProb float64, disconnectAt int) straggler.Fault {
	var fs straggler.Compose
	if crashAt >= 0 {
		fs = append(fs, straggler.CrashAt{Step: crashAt})
	}
	if dropProb > 0 {
		fs = append(fs, straggler.DropWithProb{P: dropProb})
	}
	if disconnectAt >= 0 {
		fs = append(fs, straggler.DisconnectAt{Step: disconnectAt})
	}
	if len(fs) == 0 {
		return nil
	}
	return fs
}

func run(addr string, id int, spec cliconfig.SchemeSpec, dspec cliconfig.DataSpec, delay time.Duration, computePar int, fault straggler.Fault, reconnect, heartbeat time.Duration, metricsAddr, eventsPath, logLevel, checkpointDir string, restore bool) error {
	p, err := spec.Build()
	if err != nil {
		return err
	}
	if id < 0 || id >= spec.N {
		return fmt.Errorf("worker id %d out of range [0,%d)", id, spec.N)
	}
	data, err := dspec.BuildDataset()
	if err != nil {
		return err
	}
	pids := p.Partitions(id)
	loaders, err := dspec.BuildLoaders(data, spec.N, pids)
	if err != nil {
		return err
	}
	var delayModel straggler.Model
	if delay > 0 {
		delayModel = straggler.Exponential{Mean: delay}
	}
	var wm *cluster.WorkerMetrics
	var reg *metrics.Registry
	if metricsAddr != "" {
		reg = metrics.NewRegistry()
		wm = cluster.NewWorkerMetrics(reg)
	}
	var ev *events.Log
	if eventsPath != "" || metricsAddr != "" {
		log, closer, err := cliconfig.OpenEventLog(eventsPath, logLevel)
		if err != nil {
			return err
		}
		if closer != nil {
			defer closer.Close()
		}
		ev = log
	}
	var store *checkpoint.Store
	if checkpointDir != "" {
		// Each worker gets its own subdirectory, so one -checkpoint-dir can
		// be shared by the master and the whole fleet.
		store, err = checkpoint.NewStore(filepath.Join(checkpointDir, fmt.Sprintf("worker-%d", id)), checkpoint.DefaultRetain)
		if err != nil {
			return err
		}
	}
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Addr:              addr,
		ID:                id,
		Partitions:        pids,
		Loaders:           loaders,
		Model:             model.SoftmaxRegression{Features: dspec.Features, Classes: dspec.Classes},
		Encode:            cluster.SumEncoder(),
		Delay:             delayModel,
		ComputePar:        computePar,
		DelaySeed:         dspec.Seed + int64(id),
		Fault:             fault,
		FaultSeed:         dspec.Seed + int64(id),
		HeartbeatInterval: heartbeat,
		ReconnectTimeout:  reconnect,
		Metrics:           wm,
		Events:            ev,
		Checkpoint:        store,
		Restore:           restore,
	})
	if err != nil {
		return err
	}
	// SIGINT/SIGTERM → graceful shutdown: the worker leaves the fleet,
	// persists its resumable state (when -checkpoint-dir is set), and the
	// process exits 0.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	go func() {
		<-sigCh
		w.Stop()
	}()
	if metricsAddr != "" {
		adm := admin.New(admin.Config{
			Addr:     metricsAddr,
			Registry: reg,
			Health:   func() any { return w.Health() },
			Events:   ev,
		})
		if err := adm.Start(); err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = adm.Shutdown(ctx)
		}()
		fmt.Printf("worker %d: metrics on %s/metrics\n", id, adm.URL())
	}
	fmt.Printf("worker %d: partitions %v, connected to %s\n", id, pids, addr)
	steps, err := w.Run()
	if err != nil {
		return err
	}
	fmt.Printf("worker %d: served %d steps, abandoned %d superseded\n", id, steps, w.Health().Abandoned)
	return nil
}
