// Command isgc-experiments regenerates every figure of the paper's
// evaluation section from this repository's implementation.
//
// Usage:
//
//	isgc-experiments -fig all            # everything (default)
//	isgc-experiments -fig 11a            # Fig. 11(a): step time, delay 1.5s
//	isgc-experiments -fig 11b            # Fig. 11(b): step time, delay 3s
//	isgc-experiments -fig 12             # Fig. 12(a-d): training comparison
//	isgc-experiments -fig 13             # Fig. 13(a-b): HR trade-off
//	isgc-experiments -fig bounds         # Theorems 10-11 validation table
//	isgc-experiments -fig attribution    # straggler-attribution timeline table
//	isgc-experiments -fig 12 -trials 10  # paper-scale averaging
//	isgc-experiments -fig 12 -csv        # machine-readable output
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"isgc/internal/admin"
	"isgc/internal/buildinfo"
	"isgc/internal/cliconfig"
	"isgc/internal/events"
	"isgc/internal/experiments"
	"isgc/internal/metrics"
	"isgc/internal/placement"
	"isgc/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 11a, 11b, 12, 13, bounds, ablations, theory, hetero, attribution, all")
	trials := flag.Int("trials", 0, "override the number of trials per data point (0 = default)")
	steps := flag.Int("steps", 0, "override simulated steps for Fig. 11 (0 = default)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	seed := flag.Int64("seed", 0, "override the experiment seed (0 = default)")
	show := flag.String("show", "", `print a placement and its conflict graph instead of running experiments; format "fr:n:c", "cr:n:c", or "hr:n:c1:c2:g", e.g. -show hr:8:2:2:2`)
	workload := flag.String("workload", "", `Fig. 12 training workload: "softmax" (default) or "mlp"`)
	metricsAddr := flag.String("metrics-addr", "", "serve /debug/pprof and /metrics on this address while experiments run (empty disables)")
	eventsPath := flag.String("events", "", "write a JSONL structured event log to this path (\"-\" = stderr)")
	logLevel := flag.String("log-level", "info", "minimum event level: debug, info, warn, or error")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Get())
		return
	}

	if *metricsAddr != "" {
		// Paper-scale runs (-trials 10) take minutes; a live pprof
		// endpoint makes them inspectable without restarting.
		adm := admin.New(admin.Config{
			Addr:     *metricsAddr,
			Registry: metrics.NewRegistry(),
		})
		if err := adm.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "isgc-experiments: metrics endpoint:", err)
			os.Exit(1)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = adm.Shutdown(ctx)
		}()
		fmt.Fprintf(os.Stderr, "profiling: %s/debug/pprof/\n", adm.URL())
	}

	if *show != "" {
		if err := runShow(*show); err != nil {
			fmt.Fprintln(os.Stderr, "isgc-experiments:", err)
			os.Exit(1)
		}
		return
	}
	var ev *events.Log
	if *eventsPath != "" {
		log, closer, err := cliconfig.OpenEventLog(*eventsPath, *logLevel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "isgc-experiments:", err)
			os.Exit(1)
		}
		if closer != nil {
			defer closer.Close()
		}
		ev = log
	}
	if err := run(*fig, *trials, *steps, *seed, *csv, *workload, ev); err != nil {
		fmt.Fprintln(os.Stderr, "isgc-experiments:", err)
		os.Exit(1)
	}
}

// runShow renders a placement grid and conflict matrix (the repo's version
// of the paper's Figs. 2, 4, and 7).
func runShow(spec string) error {
	parts := strings.Split(spec, ":")
	atoi := func(s string) (int, error) { return strconv.Atoi(s) }
	var p *placement.Placement
	var err error
	switch {
	case len(parts) == 3 && (parts[0] == "fr" || parts[0] == "cr"):
		n, err1 := atoi(parts[1])
		c, err2 := atoi(parts[2])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad -show %q: n and c must be integers", spec)
		}
		if parts[0] == "fr" {
			p, err = placement.FR(n, c)
		} else {
			p, err = placement.CR(n, c)
		}
	case len(parts) == 5 && parts[0] == "hr":
		n, err1 := atoi(parts[1])
		c1, err2 := atoi(parts[2])
		c2, err3 := atoi(parts[3])
		g, err4 := atoi(parts[4])
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return fmt.Errorf("bad -show %q: all HR fields must be integers", spec)
		}
		p, err = placement.HR(n, c1, c2, g)
	default:
		return fmt.Errorf("bad -show %q (want fr:n:c, cr:n:c, or hr:n:c1:c2:g)", spec)
	}
	if err != nil {
		return err
	}
	fmt.Println(p.Render())
	fmt.Println(p.RenderConflicts())
	return nil
}

func run(fig string, trials, steps int, seed int64, csv bool, workload string, ev *events.Log) error {
	emit := func(tabs ...*trace.Table) {
		for _, t := range tabs {
			if csv {
				fmt.Printf("# %s\n%s\n", t.Caption, t.CSV())
			} else {
				fmt.Println(t.String())
			}
		}
	}
	want := func(name string) bool { return fig == "all" || fig == name }
	matched := false

	if want("11a") {
		matched = true
		cfg := experiments.DefaultFig11a()
		applyFig11Overrides(&cfg, steps, seed)
		_, tab, err := experiments.Fig11(cfg)
		if err != nil {
			return err
		}
		emit(tab)
	}
	if want("11b") {
		matched = true
		cfg := experiments.DefaultFig11b()
		applyFig11Overrides(&cfg, steps, seed)
		_, tab, err := experiments.Fig11(cfg)
		if err != nil {
			return err
		}
		emit(tab)
	}
	if want("12") {
		matched = true
		cfg := experiments.DefaultFig12()
		if trials > 0 {
			cfg.Trials = trials
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		cfg.Workload = workload
		_, tabs, err := experiments.Fig12(cfg)
		if err != nil {
			return err
		}
		emit(tabs...)
	}
	if want("13") {
		matched = true
		cfg := experiments.DefaultFig13()
		if trials > 0 {
			cfg.Trials = trials
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		_, _, tabs, err := experiments.Fig13(cfg)
		if err != nil {
			return err
		}
		emit(tabs...)
	}
	if want("bounds") {
		matched = true
		cfg := experiments.DefaultBounds()
		if trials > 0 {
			cfg.Trials = trials
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		_, tab, err := experiments.Bounds(cfg)
		if err != nil {
			return err
		}
		emit(tab)
	}
	if want("ablations") {
		matched = true
		cfg := experiments.DefaultAblations()
		if trials > 0 {
			cfg.Trials = trials
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		_, gatherTab, err := experiments.GatherPolicies(cfg)
		if err != nil {
			return err
		}
		_, endureTab, err := experiments.EnduringStraggler(cfg)
		if err != nil {
			return err
		}
		_, decodeTab, err := experiments.DecoderQuality(12, 3, 500, cfg.Seed)
		if err != nil {
			return err
		}
		biasCfg := experiments.DefaultBias()
		if trials > 0 {
			biasCfg.Trials = trials
		}
		if seed != 0 {
			biasCfg.Seed = seed
		}
		_, biasTab, err := experiments.Bias(biasCfg)
		if err != nil {
			return err
		}
		_, hrTab, err := experiments.HRStructure(8, 4, 2, cfg.Seed)
		if err != nil {
			return err
		}
		emit(gatherTab, endureTab, decodeTab, biasTab, hrTab)
	}
	if want("theory") {
		matched = true
		cfg := experiments.DefaultTheory()
		if trials > 0 {
			cfg.Trials = trials
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		_, tab, err := experiments.Theory(cfg)
		if err != nil {
			return err
		}
		emit(tab)
	}
	if want("hetero") {
		matched = true
		cfg := experiments.DefaultHeterogeneity()
		if trials > 0 {
			cfg.Trials = trials
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		_, tab, err := experiments.Heterogeneity(cfg)
		if err != nil {
			return err
		}
		emit(tab)
	}
	if want("attribution") {
		matched = true
		cfg := experiments.DefaultAttribution()
		if steps > 0 {
			cfg.Steps = steps
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		cfg.Events = ev
		_, tab, err := experiments.Attribution(cfg)
		if err != nil {
			return err
		}
		emit(tab)
	}
	if !matched {
		return fmt.Errorf("unknown -fig %q (want 11a, 11b, 12, 13, bounds, ablations, theory, hetero, attribution, or all)", fig)
	}
	return nil
}

func applyFig11Overrides(cfg *experiments.Fig11Config, steps int, seed int64) {
	if steps > 0 {
		cfg.Steps = steps
	}
	if seed != 0 {
		cfg.Seed = seed
	}
}
