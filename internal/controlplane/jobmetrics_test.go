package controlplane

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"isgc/internal/cliconfig"
	"isgc/internal/metrics"
)

// parseExposition checks body is Prometheus text exposition — every
// sample line belongs to a family announced by an earlier # TYPE line —
// and returns the unlabeled samples by name.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	types := map[string]string{}
	values := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		name, _, labeled := strings.Cut(series, "{")
		family := name
		if _, typed := types[family]; !typed {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, cut := strings.CutSuffix(name, suffix); cut && types[base] == "histogram" {
					family = base
				}
			}
		}
		if _, typed := types[family]; !typed {
			t.Fatalf("sample %q has no # TYPE line for its family", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		if !labeled {
			values[name] = v
		}
	}
	return values
}

// TestPerJobMetrics runs two jobs on one metered plane and reads each
// job's master metrics off GET /jobs/{id}/metrics: a full gather on
// cr(4,2) recovers every partition, a job that waits for one worker
// while the other three straggle recovers at most half, both answer
// after they complete, and an unknown id is a 404.
func TestPerJobMetrics(t *testing.T) {
	p, _ := startPlane(t, Config{Registry: metrics.NewRegistry()}, 8)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			if ct := resp.Header.Get("Content-Type"); ct != metrics.TextContentType {
				t.Fatalf("%s: content-type %q, want %q", path, ct, metrics.TextContentType)
			}
		}
		return resp.StatusCode, string(b)
	}
	jobMetrics := func(id string) map[string]float64 {
		t.Helper()
		code, body := get("/jobs/" + id + "/metrics")
		if code != http.StatusOK {
			t.Fatalf("/jobs/%s/metrics: %d %s", id, code, body)
		}
		return parseExposition(t, body)
	}

	// Both jobs run cr(4,2): workers {0,2} (or {1,3}) are an independent
	// set covering all four partitions. Job A gathers all four workers;
	// job B gathers the first arrival only (W=1), one worker's two of
	// four partitions, while workers 1–3 straggle.
	specA := steadySpec()
	specA.Scheme = cliconfig.SchemeSpec{Scheme: "cr", N: 4, C: 2}
	specA.MaxSteps = 60
	idA, err := p.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	specB := JobSpec{
		Name:       "straggler-ignorer",
		Scheme:     cliconfig.SchemeSpec{Scheme: "cr", N: 4, C: 2},
		Data:       cliconfig.DefaultData(7),
		MaxSteps:   150,
		W:          1,
		ComputePar: 1,
		Faults: []WorkerFault{
			{Worker: 0, CrashAtStep: -1, Delay: 4 * time.Millisecond},
			{Worker: 1, CrashAtStep: -1, Delay: 60 * time.Millisecond},
			{Worker: 2, CrashAtStep: -1, Delay: 60 * time.Millisecond},
			{Worker: 3, CrashAtStep: -1, Delay: 60 * time.Millisecond},
		},
	}
	idB, err := p.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}

	// While B runs, its recovered fraction sits at or below one half.
	waitForStep(t, p, idB, 3)
	live := jobMetrics(idB)
	if st, _ := p.Job(idB); st.State != JobRunning {
		t.Fatalf("job B is %s, want it still running", st.State)
	}
	if frac, ok := live["isgc_master_recovered_fraction"]; !ok || frac > 0.5 {
		t.Fatalf("running job B recovered fraction = %v (present %v), want ≤ 0.5", frac, ok)
	}

	waitForState(t, p, idA, JobCompleted)
	waitForState(t, p, idB, JobCompleted)

	// Finished jobs still answer, with their final values.
	for _, tc := range []struct {
		id       string
		wantFrac func(float64) bool
	}{
		{idA, func(f float64) bool { return f == 1 }},
		{idB, func(f float64) bool { return f <= 0.5 }},
	} {
		got := jobMetrics(tc.id)
		if frac, ok := got["isgc_master_recovered_fraction"]; !ok || !tc.wantFrac(frac) {
			t.Errorf("finished job %s recovered fraction = %v (present %v)", tc.id, frac, ok)
		}
		run, _, _ := p.JobResult(tc.id)
		if steps := got["isgc_master_steps_total"]; steps != float64(run.Steps()) {
			t.Errorf("finished job %s steps_total = %v, want %d", tc.id, steps, run.Steps())
		}
	}

	if code, body := get("/jobs/nope/metrics"); code != http.StatusNotFound || !strings.Contains(body, `"error"`) {
		t.Fatalf("/jobs/nope/metrics: %d %s, want a 404 error body", code, body)
	}
}
