package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"isgc/internal/cliconfig"
	"isgc/internal/cluster"
	"isgc/internal/e2etest"
)

// TestEndToEndBinaries builds the real isgc-master and isgc-worker
// executables and runs a full CR(4,2) training session over TCP with one
// deliberately slow worker and one that crashes mid-run, while this test
// scrapes the master's live metrics endpoint — the complete multi-process
// deployment story including observability.
func TestEndToEndBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary e2e in -short mode")
	}
	dir := t.TempDir()
	masterBin := filepath.Join(dir, "isgc-master")
	workerBin := filepath.Join(dir, "isgc-worker")
	for _, b := range []struct{ out, pkg string }{
		{masterBin, "isgc/cmd/isgc-master"},
		{workerBin, "isgc/cmd/isgc-worker"},
	} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b.pkg, err, out)
		}
	}

	// -version must identify the binary without starting a run.
	if out, err := exec.Command(masterBin, "-version").CombinedOutput(); err != nil {
		t.Fatalf("isgc-master -version: %v\n%s", err, out)
	} else if !strings.Contains(string(out), "isgc") {
		t.Fatalf("-version output does not identify the module: %q", out)
	}

	timelinePath := filepath.Join(dir, "timeline.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	// The "master:" line is printed once both listeners are bound.
	master, addrs := e2etest.StartListening(t, 2,
		func(addrs []string) *exec.Cmd {
			return exec.Command(masterBin,
				"-addr", addrs[0], "-n", "4", "-c", "2", "-scheme", "cr",
				"-w", "2", "-steps", "8", "-threshold", "0", "-seed", "42",
				"-liveness", "2s",
				"-timeline", timelinePath, "-events", eventsPath,
				"-metrics-addr", addrs[1], "-metrics-linger", "10s")
		},
		func(c *e2etest.Child, _ []string) bool { return strings.Contains(c.Out.String(), "master: ") })
	addr, metricsAddr := addrs[0], addrs[1]
	masterOut := master.Out

	var wg sync.WaitGroup
	workerErrs := make(chan string, 4)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := []string{
				"-addr", addr, "-id", fmt.Sprint(i), "-n", "4", "-c", "2",
				"-scheme", "cr", "-seed", "42",
			}
			switch i {
			case 0:
				args = append(args, "-delay", "150ms") // a real straggler process
			case 3:
				args = append(args, "-crash-at", "3") // dies mid-run
			}
			w := exec.Command(workerBin, args...)
			if out, err := w.CombinedOutput(); err != nil {
				workerErrs <- fmt.Sprintf("worker %d: %v\n%s", i, err, out)
			}
		}()
	}

	// Wait until the run has completed (the "done:" line) but the metrics
	// endpoint still lingers, then scrape the final state.
	master.Poll(t, 90*time.Second, "master never finished", func() bool {
		return strings.Contains(masterOut.String(), "done: steps=")
	})

	base := "http://" + metricsAddr
	body := httpGet(t, base+"/metrics")
	if !promTextValid(body) {
		t.Errorf("metrics output is not valid Prometheus text:\n%s", clip(body))
	}
	doneLine := regexp.MustCompile(`done: steps=(\d+) .*degraded_steps=(\d+)`).
		FindStringSubmatch(masterOut.String())
	if doneLine == nil {
		t.Fatalf("no parseable done line in:\n%s", masterOut.String())
	}
	for _, want := range []string{
		"isgc_master_gather_latency_seconds_bucket",
		fmt.Sprintf("isgc_master_gather_latency_seconds_count %s", doneLine[1]),
		fmt.Sprintf("isgc_master_steps_total %s", doneLine[1]),
		fmt.Sprintf("isgc_master_degraded_steps_total %s", doneLine[2]),
		"isgc_master_recovered_fraction",
		`isgc_master_worker_alive{worker="3"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("final /metrics missing %q", want)
		}
	}

	healthBody := httpGet(t, base+"/healthz")
	if !strings.Contains(healthBody, "go_version") {
		t.Errorf("healthz missing build info (no go_version key):\n%s", clip(healthBody))
	}
	var health cluster.MasterHealth
	if err := json.Unmarshal([]byte(healthBody), &health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	if len(health.Workers) != 4 {
		t.Fatalf("healthz has %d workers, want 4", len(health.Workers))
	}
	if health.Workers[3].Alive {
		t.Error("healthz reports crashed worker 3 alive after the run")
	}
	// The run is over and all connections are closed, but the per-worker
	// history must survive: every worker registered and the survivors
	// contributed gradients.
	for i, wv := range health.Workers {
		if wv.Generation < 0 {
			t.Errorf("healthz says worker %d never connected", i)
		}
		// Workers 1 and 2 are fast and healthy, so the fastest-2 gather
		// must have accepted them; 0 (straggler) and 3 (crashed) may
		// legitimately never win a step.
		if (i == 1 || i == 2) && wv.AcceptedSteps == 0 {
			t.Errorf("healthz says fast worker %d contributed no gradients", i)
		}
	}

	// The run is over; the master only lingers for metrics now.
	master.Kill()
	wg.Wait()
	close(workerErrs)
	for msg := range workerErrs {
		t.Fatal(msg)
	}

	out := masterOut.String()
	if !strings.Contains(out, "done: steps=8") {
		t.Fatalf("master output missing completion line:\n%s", out)
	}
	if !strings.Contains(out, "avail=2") {
		t.Fatalf("master never gathered w=2 workers:\n%s", out)
	}
	if !strings.Contains(out, "latency: p50=") {
		t.Fatalf("master output missing latency summary:\n%s", out)
	}
	if !strings.Contains(out, "metrics: http://") {
		t.Fatalf("master output missing metrics URL:\n%s", out)
	}
	if !strings.Contains(out, "straggler attribution (per worker)") {
		t.Fatalf("master output missing attribution table:\n%s", out)
	}

	checkTimelineFile(t, timelinePath)
	checkEventLogFile(t, eventsPath)
}

// checkTimelineFile asserts the -timeline output is a loadable Chrome
// trace: a JSON object with a traceEvents array holding at least one master
// step span and at least one per-worker compute span whose duration came
// from the worker's own clock.
func checkTimelineFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("timeline file: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TID  int     `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline is not valid Chrome trace JSON: %v\n%s", err, clip(string(raw)))
	}
	steps, computes := 0, 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if strings.HasPrefix(e.Name, "step ") && e.TID == 0 {
			steps++
		}
		// Worker compute spans live on tid = worker id + 1 and carry the
		// worker-reported duration, which a real compute pass makes nonzero.
		if e.Name == "compute" && e.TID > 0 && e.Dur > 0 {
			computes++
		}
	}
	if steps == 0 {
		t.Errorf("timeline has no master step spans (%d events)", len(doc.TraceEvents))
	}
	if computes == 0 {
		t.Errorf("timeline has no per-worker compute spans with duration (%d events)", len(doc.TraceEvents))
	}
}

// checkEventLogFile asserts the -events output is valid JSONL covering the
// run's lifecycle.
func checkEventLogFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("event log: %v", err)
	}
	types := map[string]bool{}
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var e struct {
			Level string `json:"level"`
			Type  string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("event log line %d is not JSON: %v\n%s", i+1, err, line)
		}
		types[e.Type] = true
	}
	for _, want := range []string{"master.run_started", "master.worker_registered", "master.run_finished"} {
		if !types[want] {
			t.Errorf("event log missing %q events (saw %v)", want, types)
		}
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}

// promTextValid checks every non-empty line is a comment or a sample of
// the form `name{labels} value` — the 0.0.4 exposition grammar this repo
// emits.
func promTextValid(body string) bool {
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (NaN|[+-]?(Inf|[0-9].*))$`)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		if !sample.MatchString(line) {
			return false
		}
	}
	return strings.Contains(body, "# TYPE")
}

func clip(s string) string {
	if len(s) > 2000 {
		return s[:2000] + "..."
	}
	return s
}

func TestRunRejectsBadScheme(t *testing.T) {
	spec := cliconfig.SchemeSpec{Scheme: "bogus", N: 4, C: 2}
	err := run(options{addr: "127.0.0.1:0", spec: spec, data: cliconfig.DefaultData(1), w: 2, lr: 0.1, maxSteps: 1})
	if err == nil {
		t.Fatal("expected error for unknown scheme")
	}
}

func TestRunRejectsBadDataset(t *testing.T) {
	spec := cliconfig.SchemeSpec{Scheme: "cr", N: 4, C: 2}
	d := cliconfig.DefaultData(1)
	d.Samples = 0
	err := run(options{addr: "127.0.0.1:0", spec: spec, data: d, w: 2, lr: 0.1, maxSteps: 1})
	if err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestRunRejectsBadMetricsAddr(t *testing.T) {
	spec := cliconfig.SchemeSpec{Scheme: "cr", N: 4, C: 2}
	err := run(options{
		addr: "127.0.0.1:0", spec: spec, data: cliconfig.DefaultData(1),
		w: 2, lr: 0.1, maxSteps: 1, metricsAddr: "256.256.256.256:0", out: io.Discard,
	})
	if err == nil || !strings.Contains(err.Error(), "metrics endpoint") {
		t.Fatalf("expected metrics endpoint error, got %v", err)
	}
}
