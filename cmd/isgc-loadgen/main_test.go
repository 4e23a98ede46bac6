package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmoke drives the full pipeline — structural placement, churn,
// timed decode passes, verification — at a small n for each scheme and
// churn model, asserting the incremental pass actually repairs and that
// the emitted lines follow the `go test` benchmark line grammar.
func TestRunSmoke(t *testing.T) {
	for _, scheme := range []string{"fr", "cr", "hr"} {
		for _, churn := range []string{"drift", "bernoulli", "bursty", "adversarial"} {
			scheme, churn := scheme, churn
			t.Run(scheme+"/"+churn, func(t *testing.T) {
				opts := options{
					scheme: scheme, n: 512, c: 7, hrC1: 3, hrC2: 3, hrGroups: 64,
					steps: 120, churn: churn, rate: 1, seed: 9, mode: "both",
					verify: true, requireRepairs: true,
				}
				if scheme == "fr" {
					opts.c = 8 // FR needs c | n
				}
				var out, errOut bytes.Buffer
				if err := run(opts, &out, &errOut); err != nil {
					t.Fatalf("run: %v\nstderr:\n%s", err, errOut.String())
				}
				var lines []string
				for _, l := range strings.Split(out.String(), "\n") {
					if strings.HasPrefix(l, "BenchmarkLoadgenDecode/") {
						lines = append(lines, l)
					}
				}
				if len(lines) != 3 { // fresh, incremental, speedup
					t.Fatalf("want 3 benchmark lines, got %d:\n%s", len(lines), out.String())
				}
				for _, l := range lines {
					fields := strings.Fields(l)
					if len(fields) < 4 || len(fields)%2 != 0 {
						t.Fatalf("malformed benchmark line (odd value/unit pairing): %q", l)
					}
					name := fields[0]
					if i := strings.LastIndexByte(name, '-'); i > strings.LastIndexByte(name, '/') {
						t.Fatalf("name %q would lose a -N suffix to the GOMAXPROCS splitter", name)
					}
				}
				if !strings.Contains(out.String(), "mode=incremental") ||
					!strings.Contains(out.String(), "/speedup") {
					t.Fatalf("missing incremental or speedup line:\n%s", out.String())
				}
				if got := strings.Count(out.String(), " recovered-p95-ns"); got != 2 {
					t.Fatalf("want the recovered-partition latency on both pass lines, got %d:\n%s", got, out.String())
				}
			})
		}
	}
}

// TestRunRejectsBadFlags pins the error paths CI depends on: bad scheme,
// bad churn, bad mode, and -require-repairs without an incremental pass.
func TestRunRejectsBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	base := options{scheme: "cr", n: 64, c: 3, steps: 10, churn: "drift", rate: 1, mode: "both"}
	for name, mutate := range map[string]func(*options){
		"scheme": func(o *options) { o.scheme = "xx" },
		"churn":  func(o *options) { o.churn = "xx" },
		"mode":   func(o *options) { o.mode = "xx" },
		"steps":  func(o *options) { o.steps = 0 },
		"rate":   func(o *options) { o.rate = 0 },
		"repairs-needs-incremental": func(o *options) {
			o.mode = "fresh"
			o.requireRepairs = true
		},
		"speedup-needs-both": func(o *options) {
			o.mode = "incremental"
			o.minP95Speedup = 2
		},
	} {
		opts := base
		mutate(&opts)
		if err := run(opts, &out, &errOut); err == nil {
			t.Errorf("%s: run accepted invalid options %+v", name, opts)
		}
	}
}
