package admin

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"isgc/internal/events"
	"isgc/internal/metrics"
)

// TestMetricsGolden pins the /metrics response: status, content type, and
// exact exposition body.
func TestMetricsGolden(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.NewCounter("steps_total", "Training steps.")
	c.Add(3)
	h := reg.NewHistogram("gather_seconds", "Gather latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)

	s := New(Config{Registry: reg})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))

	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != metrics.TextContentType {
		t.Fatalf("content type = %q", ct)
	}
	const want = `# HELP gather_seconds Gather latency.
# TYPE gather_seconds histogram
gather_seconds_bucket{le="0.1"} 1
gather_seconds_bucket{le="1"} 2
gather_seconds_bucket{le="+Inf"} 2
gather_seconds_sum 0.55
gather_seconds_count 2
# HELP steps_total Training steps.
# TYPE steps_total counter
steps_total 3
`
	if rec.Body.String() != want {
		t.Fatalf("body mismatch:\n--- got ---\n%s--- want ---\n%s", rec.Body.String(), want)
	}
}

func TestHealthzShape(t *testing.T) {
	type workerHealth struct {
		ID    int  `json:"id"`
		Alive bool `json:"alive"`
	}
	s := New(Config{Health: func() any {
		return map[string]any{
			"running": true,
			"step":    7,
			"workers": []workerHealth{{0, true}, {1, false}},
		}
	}})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var got struct {
		Running bool `json:"running"`
		Step    int  `json:"step"`
		Workers []struct {
			ID    int  `json:"id"`
			Alive bool `json:"alive"`
		} `json:"workers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("healthz is not valid JSON: %v\n%s", err, rec.Body.String())
	}
	if !got.Running || got.Step != 7 || len(got.Workers) != 2 || got.Workers[1].Alive {
		t.Fatalf("unexpected payload: %+v", got)
	}
}

func TestHealthzDefault(t *testing.T) {
	s := New(Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var got map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got["status"] != "ok" {
		t.Fatalf("default healthz = %v", got)
	}
}

// TestHealthzBuildInfo pins that object payloads gain a "build" key with
// the binary's identity — and that struct-typed consumers unmarshaling
// into their own types are unaffected (unknown keys are ignored).
func TestHealthzBuildInfo(t *testing.T) {
	s := New(Config{Health: func() any { return map[string]any{"step": 3} }})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var got struct {
		Step  int `json:"step"`
		Build struct {
			GoVersion string `json:"go_version"`
			Version   string `json:"version"`
		} `json:"build"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("healthz: %v\n%s", err, rec.Body.String())
	}
	if got.Step != 3 {
		t.Fatalf("payload fields lost: %+v", got)
	}
	if got.Build.GoVersion == "" || got.Build.Version == "" {
		t.Fatalf("build info missing: %s", rec.Body.String())
	}
}

func TestDebugEvents(t *testing.T) {
	log := events.New(events.Config{Writer: io.Discard})
	for i := 0; i < 5; i++ {
		log.Info("test.tick", "tick", i, events.NoWorker, nil)
	}
	log.Warn("test.evicted", "gone", 5, 2, nil)
	s := New(Config{Events: log})

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var evs []events.Event
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatalf("events: %v\n%s", err, rec.Body.String())
	}
	if len(evs) != 6 || evs[5].Type != "test.evicted" || evs[5].Level != events.LevelWarn {
		t.Fatalf("events = %+v", evs)
	}

	// ?n=2 returns the most recent two.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events?n=2", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[1].Type != "test.evicted" {
		t.Fatalf("limited events = %+v", evs)
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events?n=bogus", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad n: status = %d, want 400", rec.Code)
	}
}

func TestDebugEventsNilLog(t *testing.T) {
	s := New(Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events", nil))
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Fatalf("nil log: status=%d body=%q", rec.Code, rec.Body.String())
	}
}

func TestDebugTimeline(t *testing.T) {
	tl := events.NewTimeline(0)
	tl.SetThreadName(0, "master")
	tl.Add(events.Span{Name: "step 0", Cat: "step", Start: time.Now(), Dur: time.Millisecond})
	s := New(Config{Timeline: tl})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("timeline: %v\n%s", err, rec.Body.String())
	}
	var foundSpan bool
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" && e.Name == "step 0" {
			foundSpan = true
		}
	}
	if !foundSpan {
		t.Fatalf("span missing: %s", rec.Body.String())
	}

	// A nil timeline still serves a loadable empty trace.
	rec = httptest.NewRecorder()
	New(Config{}).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"traceEvents"`) {
		t.Fatalf("nil timeline: status=%d body=%q", rec.Code, rec.Body.String())
	}
}

func TestIndexAndPprof(t *testing.T) {
	s := New(Config{})
	for _, path := range []string{"/", "/debug/pprof/"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s: status %d", path, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/no-such-page", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET /no-such-page: status %d, want 404", rec.Code)
	}
}

// sampleLine matches a Prometheus text-format sample or comment line.
var sampleLine = regexp.MustCompile(`^(#.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? (-?[0-9.e+-]+|[+-]Inf|NaN))$`)

// TestConcurrentScrapeWhileStepping runs a real HTTP server and hammers
// /metrics and /healthz while "training steps" update the instruments —
// the -race workout for the whole scrape path.
func TestConcurrentScrapeWhileStepping(t *testing.T) {
	reg := metrics.NewRegistry()
	steps := reg.NewCounter("steps_total", "")
	gather := reg.NewHistogram("gather_seconds", "", metrics.DefBuckets)
	frac := reg.NewGauge("recovered_fraction", "")
	var stepCount int64
	var mu sync.Mutex
	reg.NewGaugeFunc("alive_workers", "", func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return float64(stepCount % 5)
	})

	s := New(Config{
		Addr:     "127.0.0.1:0",
		Registry: reg,
		Health: func() any {
			mu.Lock()
			defer mu.Unlock()
			return map[string]int64{"step": stepCount}
		},
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the "training loop"
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			steps.Inc()
			gather.Observe(float64(i%100) / 1000)
			frac.Set(float64(i%10) / 10)
			mu.Lock()
			stepCount++
			mu.Unlock()
		}
	}()

	client := &http.Client{Timeout: 2 * time.Second}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				resp, err := client.Get(s.URL() + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
					if !sampleLine.MatchString(line) {
						t.Errorf("invalid exposition line %q", line)
						return
					}
				}
				resp, err = client.Get(s.URL() + "/healthz")
				if err != nil {
					t.Error(err)
					return
				}
				var payload struct {
					Step int64 `json:"step"`
				}
				err = json.NewDecoder(resp.Body).Decode(&payload)
				resp.Body.Close()
				if err != nil {
					t.Errorf("healthz decode: %v", err)
					return
				}
			}
		}()
	}
	// Let the scrapers finish, then stop the stepper.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for scrapers")
	}
}

func TestDoubleStartFails(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0"})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if err := s.Start(); err == nil {
		t.Fatal("second Start should fail")
	}
}

func TestShutdownWithoutStart(t *testing.T) {
	s := New(Config{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestAddrBeforeStart(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0"})
	if s.Addr() != "" || s.URL() != "" {
		t.Fatal("Addr/URL should be empty before Start")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if s.Addr() == "" || !strings.HasPrefix(s.URL(), "http://127.0.0.1:") {
		t.Fatalf("Addr = %q URL = %q", s.Addr(), s.URL())
	}
	// The server actually answers on that address.
	resp, err := http.Get(s.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func ExampleServer() {
	reg := metrics.NewRegistry()
	reg.NewCounter("example_total", "An example counter.").Add(2)
	s := New(Config{Addr: "127.0.0.1:0", Registry: reg})
	if err := s.Start(); err != nil {
		fmt.Println(err)
		return
	}
	defer s.Shutdown(context.Background())
	resp, err := http.Get(s.URL() + "/metrics")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	fmt.Print(string(body))
	// Output:
	// # HELP example_total An example counter.
	// # TYPE example_total counter
	// example_total 2
}

// TestExtraRoutes covers Config.Extra: the handlers are mounted into the
// mux and the index page advertises them.
func TestExtraRoutes(t *testing.T) {
	s := New(Config{Extra: map[string]http.Handler{
		"/jobs": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "jobs here")
		}),
		"/fleet": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "fleet here")
		}),
	}})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/jobs", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "jobs here" {
		t.Fatalf("GET /jobs = %d %q", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	body := rec.Body.String()
	for _, want := range []string{"extra endpoints:", "/fleet", "/jobs"} {
		if !strings.Contains(body, want) {
			t.Fatalf("index page does not list %q:\n%s", want, body)
		}
	}
	if strings.Index(body, "/fleet") > strings.Index(body, "/jobs") {
		t.Fatal("extra endpoints are not sorted on the index page")
	}
}

// TestDebugEventsParamTable is the table-driven contract for ?n=
// hardening: malformed and negative values return 400 with a JSON error
// body and content type, valid values limit.
func TestDebugEventsParamTable(t *testing.T) {
	log := events.New(events.Config{})
	for i := 0; i < 4; i++ {
		log.Info("tick", "t", i, events.NoWorker, nil)
	}
	s := New(Config{Events: log})
	cases := []struct {
		name   string
		url    string
		status int
	}{
		{"no limit", "/debug/events", 200},
		{"zero", "/debug/events?n=0", 200},
		{"in range", "/debug/events?n=2", 200},
		{"past end", "/debug/events?n=99", 200},
		{"negative", "/debug/events?n=-1", 400},
		{"malformed", "/debug/events?n=two", 400},
		{"float", "/debug/events?n=1.5", 400},
		{"empty value kept as unset", "/debug/events?n=", 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", tc.url, nil))
			if rec.Code != tc.status {
				t.Fatalf("%s: status %d, want %d", tc.url, rec.Code, tc.status)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: content-type %q, want application/json", tc.url, ct)
			}
			if tc.status == 400 && !strings.Contains(rec.Body.String(), `"error"`) {
				t.Errorf("%s: 400 body %q has no error field", tc.url, rec.Body.String())
			}
		})
	}
}
