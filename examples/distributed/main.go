// Distributed: a complete IS-GC training cluster over real TCP sockets —
// one master and four workers, all in one process for convenience (the
// cmd/isgc-master and cmd/isgc-worker binaries run the same protocol as
// separate processes).
//
// Two of the four workers are persistent stragglers with real sleeps, and a
// third *crashes outright* mid-run: at step 8 worker 3 dies without a
// farewell, exactly like a killed process. The master waits only for the
// two fastest uploads per step (the paper's ray.wait(w) gather), decodes
// with IS-GC over CR(4, 2), notices the death through its liveness layer,
// and keeps training on the survivors — CR(4, 2) tolerates the loss
// because every partition still has a live replica. The ignored workers in
// turn ignore what the master has moved past: each treats the next
// broadcast as the cancel signal for the step it is still sleeping on, so
// the example ends with a served/abandoned count per worker.
//
// The master also exposes its observability endpoint (Prometheus /metrics,
// JSON /healthz, /debug/pprof) on a loopback port; the example prints the
// URL and scrapes it once mid-run, right around the injected crash.
//
// With -events the run also writes a JSONL structured event log ("-" for
// stderr) — the crash shows up as master.worker_evicted — and -timeline
// writes a Chrome trace-event file to load in ui.perfetto.dev.
//
// Run with: go run ./examples/distributed
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"isgc/internal/admin"
	"isgc/internal/checkpoint"
	"isgc/internal/cliconfig"
	"isgc/internal/cluster"
	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/events"
	icore "isgc/internal/isgc"
	"isgc/internal/metrics"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
)

func main() {
	eventsPath := flag.String("events", "", `write a JSONL structured event log to this path ("-" = stderr)`)
	timelinePath := flag.String("timeline", "", "write a Chrome trace-event file of the run to this path")
	checkpointDir := flag.String("checkpoint-dir", "", "persist durable run snapshots in this directory (empty disables; restart the example with -restore to resume)")
	restore := flag.Bool("restore", false, "resume from the newest checkpoint in -checkpoint-dir")
	flag.Parse()
	const (
		n         = 4
		c         = 2
		w         = 2
		batch     = 8
		seed      = 42
		crashStep = 8
	)
	data, err := dataset.SyntheticClusters(240, 6, 3, 2.0, seed)
	if err != nil {
		log.Fatal(err)
	}
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}

	place, err := placement.CR(n, c)
	if err != nil {
		log.Fatal(err)
	}
	strategy, err := engine.NewISGC(icore.New(place, seed))
	if err != nil {
		log.Fatal(err)
	}

	reg := metrics.NewRegistry()
	mm := cluster.NewMasterMetrics(reg)
	var ev *events.Log
	if *eventsPath != "" {
		log2, closer, err := cliconfig.OpenEventLog(*eventsPath, "info")
		if err != nil {
			log.Fatal(err)
		}
		if closer != nil {
			defer closer.Close()
		}
		ev = log2
	}
	var tl *events.Timeline
	if *timelinePath != "" {
		tl = events.NewTimeline(0)
	}
	var store *checkpoint.Store
	if *checkpointDir != "" {
		store, err = checkpoint.NewStore(*checkpointDir, checkpoint.DefaultRetain)
		if err != nil {
			log.Fatal(err)
		}
	}
	master, err := cluster.NewMaster(cluster.MasterConfig{
		Addr:            "127.0.0.1:0",
		Strategy:        strategy,
		Model:           mdl,
		Data:            data,
		LearningRate:    0.2,
		W:               w,
		MaxSteps:        30,
		LossThreshold:   0.05,
		Seed:            seed,
		LivenessTimeout: 2 * time.Second,
		Metrics:         mm,
		Events:          ev,
		Timeline:        tl,
		Checkpoint:      store,
		CheckpointEvery: 5,
		Restore:         *restore,
	})
	if err != nil {
		log.Fatal(err)
	}
	if store != nil {
		fmt.Printf("checkpointing every 5 steps into %s\n", *checkpointDir)
	}
	fmt.Printf("master listening on %s (%s, waiting for %d fastest of %d workers)\n",
		master.Addr(), place, w, n)

	// The master also serves live observability: Prometheus metrics,
	// a JSON liveness snapshot, and pprof. Scrape it while training runs:
	//   curl http://<addr>/metrics
	adm := admin.New(admin.Config{
		Addr:     "127.0.0.1:0",
		Registry: reg,
		Health:   func() any { return master.Health() },
		Events:   ev,
		Timeline: tl,
	})
	if err := adm.Start(); err != nil {
		log.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = adm.Shutdown(ctx)
	}()
	fmt.Printf("metrics at %s/metrics, health at %s/healthz\n", adm.URL(), adm.URL())

	// One scrape mid-run, right after the injected crash, to show the live
	// view a Prometheus server would collect. Failures only log:
	// observability must never take the training down.
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		client := &http.Client{Timeout: time.Second}
		// Poll the health endpoint until the run has passed the crash step
		// (bounded: the run may finish first on a fast machine).
		var h cluster.MasterHealth
		sawRunning := false
		for i := 0; i < 200; i++ {
			resp, err := client.Get(adm.URL() + "/healthz")
			if err != nil {
				log.Printf("mid-run scrape: %v", err)
				return
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err != nil {
				log.Printf("mid-run scrape: %v", err)
				return
			}
			sawRunning = sawRunning || h.Running
			if h.Step > crashStep || (sawRunning && !h.Running) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		fmt.Printf("[scrape] step=%d alive=%d degraded_steps=%d\n",
			h.Step, h.AliveWorkers, h.DegradedSteps)
		resp, err := client.Get(adm.URL() + "/metrics")
		if err != nil {
			log.Printf("mid-run scrape: %v", err)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Printf("mid-run scrape: %v", err)
			return
		}
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "isgc_master_recovered_fraction") ||
				strings.HasPrefix(line, "isgc_master_alive_workers") {
				fmt.Printf("[scrape] %s\n", line)
			}
		}
	}()

	parts, err := data.Partition(n)
	if err != nil {
		log.Fatal(err)
	}

	var wg sync.WaitGroup
	var served, abandoned atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pids := place.Partitions(i)
			loaders := make([]*dataset.Loader, len(pids))
			for j, d := range pids {
				var err error
				loaders[j], err = dataset.NewLoader(parts[d], batch, seed+int64(d)*7919)
				if err != nil {
					log.Fatal(err)
				}
			}
			// Workers 0 and 1 straggle: ~60ms of real sleep per upload.
			var delay straggler.Model
			if i < 2 {
				delay = straggler.Exponential{Mean: 60 * time.Millisecond}
			}
			// Worker 3 dies for real at crashStep — no farewell message.
			var fault straggler.Fault
			if i == 3 {
				fault = straggler.CrashAt{Step: crashStep}
			}
			worker, err := cluster.NewWorker(cluster.WorkerConfig{
				Addr:              master.Addr(),
				ID:                i,
				Partitions:        pids,
				Loaders:           loaders,
				Model:             mdl,
				Encode:            cluster.SumEncoder(),
				Delay:             delay,
				DelaySeed:         int64(i),
				Fault:             fault,
				FaultSeed:         int64(i),
				HeartbeatInterval: 200 * time.Millisecond,
				Events:            ev,
				Timeline:          tl,
			})
			if err != nil {
				// A registration dialled after the master finished meets a
				// job-gone reply, or — once the master has closed its
				// listener — a refused or reset connection: nothing left to
				// serve.
				if h := master.Health(); errors.Is(err, cluster.ErrJobGone) || (!h.Running && h.Step > 0) {
					fmt.Printf("worker %d joined after the job ended\n", i)
					return
				}
				log.Fatal(err)
			}
			steps, err := worker.Run()
			if err != nil {
				log.Fatal(err)
			}
			h := worker.Health()
			served.Add(h.StepsServed)
			abandoned.Add(h.Abandoned)
			if i == 3 {
				fmt.Printf("worker %d crashed after %d steps (served/abandoned %d/%d)\n", i, steps, h.StepsServed, h.Abandoned)
				return
			}
			fmt.Printf("worker %d served/abandoned %d/%d steps\n", i, h.StepsServed, h.Abandoned)
		}()
	}

	res, err := master.Run()
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()
	<-scraped
	if *timelinePath != "" {
		if err := tl.WriteFile(*timelinePath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline: wrote %s (load in ui.perfetto.dev)\n", *timelinePath)
	}

	fmt.Println()
	for _, rec := range res.Run.Records {
		mark := ""
		if rec.Degraded {
			mark = " DEGRADED"
		}
		fmt.Printf("step %2d: avail=%d alive=%d recovered=%.2f loss=%.4f elapsed=%v%s\n",
			rec.Step, rec.Available, rec.Alive, rec.RecoveredFraction, rec.Loss,
			rec.Elapsed.Round(time.Millisecond), mark)
	}
	fmt.Printf("\ntrained %d steps in %v (converged=%v, final loss %.4f, degraded steps %d)\n",
		res.Run.Steps(), res.Run.TotalTime().Round(time.Millisecond),
		res.Converged, res.Run.FinalLoss(), res.Run.DegradedSteps())
	fmt.Printf("fleet: served %d steps, abandoned %d superseded ones before upload\n", served.Load(), abandoned.Load())
	fmt.Println("the master never waited for the slow workers 0 and 1, and kept")
	fmt.Printf("training after worker 3 died at step %d — arbitrary straggler\n", crashStep)
	fmt.Println("ignorance covers crashes, not just slowness.")
}
