// Control-plane mode: instead of running one training job to completion,
// the process hosts the multi-job scheduler and fleet manager. Workers
// join the fleet with `isgc-worker -fleet <addr>`, jobs are submitted over
// the admin /jobs API (or `isgc-ctl submit`), and the plane handles
// admission, live re-placement after permanent worker loss, and durable
// checkpoint/restore of both the jobs and its own job table.
package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"isgc/internal/admin"
	"isgc/internal/cliconfig"
	"isgc/internal/controlplane"
	"isgc/internal/events"
	"isgc/internal/metrics"
)

// cpOptions collects the control-plane flags.
type cpOptions struct {
	fleetAddr    string
	stateDir     string
	restore      bool
	agentTimeout time.Duration
	metricsAddr  string
	eventsPath   string
	logLevel     string
}

func runControlPlane(opts cpOptions) error {
	var reg *metrics.Registry
	if opts.metricsAddr != "" {
		reg = metrics.NewRegistry()
	}
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

	plane, err := controlplane.New(controlplane.Config{
		FleetAddr:    opts.fleetAddr,
		StateDir:     opts.stateDir,
		Restore:      opts.restore,
		AgentTimeout: opts.agentTimeout,
		Registry:     reg,
		Events:       ev,
	})
	if err != nil {
		return err
	}
	if err := plane.Start(); err != nil {
		return err
	}

	if opts.metricsAddr != "" {
		h := plane.Handler()
		adm := admin.New(admin.Config{
			Addr:     opts.metricsAddr,
			Registry: reg,
			Health: func() any {
				return map[string]any{"jobs": plane.Jobs(), "fleet": plane.FleetSnapshot()}
			},
			Events: ev,
			Extra: map[string]http.Handler{
				"/jobs":  h,
				"/jobs/": h,
				"/fleet": h,
			},
		})
		if err := adm.Start(); err != nil {
			plane.Stop()
			return fmt.Errorf("admin endpoint: %w", err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = adm.Shutdown(ctx)
		}()
		fmt.Printf("controlplane: admin on %s (/jobs, /fleet, /metrics; per-job /jobs/{id}/metrics)\n", adm.URL())
	}
	fmt.Printf("controlplane: fleet on %s, state-dir=%q restore=%v\n",
		plane.FleetAddr(), opts.stateDir, opts.restore)

	// SIGINT/SIGTERM → quiesce every job at a step boundary, checkpoint the
	// scheduler state, exit 0. A later -restore resumes the jobs.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	<-sigCh
	fmt.Println("controlplane: shutting down (jobs quiesce at their next step boundary)")
	plane.Stop()
	return nil
}
