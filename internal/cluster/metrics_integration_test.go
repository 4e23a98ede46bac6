package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"isgc/internal/admin"
	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/isgc"
	"isgc/internal/metrics"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
)

// TestMasterMetricsMatchTrace runs a full in-process cluster with a
// mid-run worker crash while an admin server is scraped concurrently,
// then checks that the exported metrics agree exactly with the final
// trace.Run — the acceptance contract of the observability layer.
func TestMasterMetricsMatchTrace(t *testing.T) {
	p, err := placement.CR(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := engine.NewISGC(isgc.New(p, 7))
	if err != nil {
		t.Fatal(err)
	}
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	data := testData(t)

	reg := metrics.NewRegistry()
	mm := NewMasterMetrics(reg)
	master, err := NewMaster(MasterConfig{
		Addr:            "127.0.0.1:0",
		Strategy:        st,
		Model:           mdl,
		Data:            data,
		LearningRate:    0.3,
		W:               2,
		MaxSteps:        8,
		Seed:            42,
		AcceptTimeout:   10 * time.Second,
		LivenessTimeout: 500 * time.Millisecond,
		Metrics:         mm,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Before Run the master already knows its fleet: n workers, none alive.
	// The scrape loop below may land before Run's first line.
	if h := master.Health(); len(h.Workers) != 4 || h.AliveWorkers != 0 || h.Running {
		t.Fatalf("Health before Run: %d workers, %d alive, running=%v; want 4, 0, false", len(h.Workers), h.AliveWorkers, h.Running)
	}

	adm := admin.New(admin.Config{
		Addr:     "127.0.0.1:0",
		Registry: reg,
		Health:   func() any { return master.Health() },
	})
	if err := adm.Start(); err != nil {
		t.Fatal(err)
	}
	defer adm.Shutdown(context.Background())

	parts, err := data.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	workerMetrics := make([]*WorkerMetrics, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		workerMetrics[i] = NewWorkerMetrics(metrics.NewRegistry())
		wg.Add(1)
		go func() {
			defer wg.Done()
			pids := st.Partitions(i)
			loaders := make([]*dataset.Loader, len(pids))
			for j, d := range pids {
				var err error
				loaders[j], err = dataset.NewLoader(parts[d], 16, 42+int64(d)*7919)
				if err != nil {
					t.Error(err)
					return
				}
			}
			var fault straggler.Fault
			if i == 3 {
				fault = straggler.CrashAt{Step: 3}
			}
			wk, err := NewWorker(WorkerConfig{
				Addr:              master.Addr(),
				ID:                i,
				Partitions:        pids,
				Loaders:           loaders,
				Model:             mdl,
				Encode:            SumEncoder(),
				Fault:             fault,
				HeartbeatInterval: 100 * time.Millisecond,
				Metrics:           workerMetrics[i],
			})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := wk.Run(); err != nil {
				t.Error(err)
			}
		}()
	}

	// Scrape continuously while the cluster trains: the race-detector
	// workout for live exposition and health snapshots.
	scrapeStop := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		client := &http.Client{Timeout: time.Second}
		for {
			select {
			case <-scrapeStop:
				return
			default:
			}
			resp, err := client.Get(adm.URL() + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			resp, err = client.Get(adm.URL() + "/healthz")
			if err != nil {
				t.Error(err)
				return
			}
			var h MasterHealth
			if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
				t.Errorf("mid-run healthz decode: %v", err)
			}
			resp.Body.Close()
			if len(h.Workers) != 4 {
				t.Errorf("mid-run healthz has %d workers, want 4", len(h.Workers))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	res, err := master.Run()
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	wg.Wait()
	close(scrapeStop)
	<-scrapeDone

	// Metrics must agree with the final trace.
	steps := uint64(res.Run.Steps())
	if got := mm.Steps.Value(); got != steps {
		t.Errorf("steps counter = %d, trace says %d", got, steps)
	}
	if got := mm.GatherLatency.Count(); got != steps {
		t.Errorf("gather histogram count = %d, trace says %d steps", got, steps)
	}
	if got, want := mm.DegradedSteps.Value(), uint64(res.Run.DegradedSteps()); got != want {
		t.Errorf("degraded counter = %d, trace says %d", got, want)
	}
	last := res.Run.Records[len(res.Run.Records)-1]
	if got := mm.RecoveredFraction.Value(); got != last.RecoveredFraction {
		t.Errorf("recovered fraction gauge = %v, trace says %v", got, last.RecoveredFraction)
	}
	if got := mm.Malformed.Value(); got != 0 {
		t.Errorf("malformed counter = %d, want 0", got)
	}
	if mm.SentBytes.Value() == 0 {
		t.Error("master sent-bytes counter never moved")
	}

	// The final health snapshot reflects the crash and the run's end.
	h := master.Health()
	if h.Running {
		t.Error("health still reports running after Run returned")
	}
	if len(h.Workers) != 4 {
		t.Fatalf("health has %d workers, want 4", len(h.Workers))
	}
	if h.Workers[3].Alive {
		t.Error("crashed worker 3 still reported alive")
	}
	if h.DegradedSteps != res.Run.DegradedSteps() {
		t.Errorf("health degraded = %d, trace says %d", h.DegradedSteps, res.Run.DegradedSteps())
	}
	if h.GatherP95Seconds <= 0 || h.GatherP50Seconds <= 0 {
		t.Errorf("health gather quantiles p50=%v p95=%v, want > 0 after a run",
			h.GatherP50Seconds, h.GatherP95Seconds)
	}
	if h.GatherP50Seconds > h.GatherP95Seconds {
		t.Errorf("gather p50 %v > p95 %v", h.GatherP50Seconds, h.GatherP95Seconds)
	}
	for i, v := range h.Workers {
		if got := mm.AcceptedGradients.With(strconv.Itoa(i)).Value(); uint64(v.AcceptedSteps) != got {
			t.Errorf("health accepted[%d] = %d, the accepted-gradients counter says %d", i, v.AcceptedSteps, got)
		}
	}

	// Worker-side instruments moved for the survivor the master accepted
	// most from. Any fixed survivor can lose every fastest-2 race of a short
	// run and legitimately serve nothing.
	top := 0
	for i := 1; i < 3; i++ {
		if h.Workers[i].AcceptedSteps > h.Workers[top].AcceptedSteps {
			top = i
		}
	}
	wm := workerMetrics[top]
	if wm.Steps.Value() == 0 || wm.ComputeTime.Count() == 0 || wm.SentBytes.Value() == 0 {
		t.Errorf("worker %d instruments did not move: steps=%d compute=%d bytes=%d",
			top, wm.Steps.Value(), wm.ComputeTime.Count(), wm.SentBytes.Value())
	}
	// Every computed step was either served or given up after its compute
	// (a degraded step closes without its slower survivors).
	gaveUp := wm.StepsAbandoned.With(phaseDelay).Value() + wm.StepsAbandoned.With(phasePresend).Value()
	if wm.Steps.Value()+gaveUp != wm.ComputeTime.Count() {
		t.Errorf("worker %d steps (%d) + abandoned after compute (%d) != compute observations (%d)",
			top, wm.Steps.Value(), gaveUp, wm.ComputeTime.Count())
	}

	// The exposition carries the per-worker families with real values.
	reqCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, "GET", adm.URL()+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"isgc_master_gather_latency_seconds_bucket",
		"isgc_master_recovered_fraction",
		"isgc_master_degraded_steps_total",
		"isgc_master_alive_workers",
		"isgc_master_max_heartbeat_age_seconds",
		`isgc_master_worker_alive{worker="3"} 0`,
		fmt.Sprintf(`isgc_master_accepted_gradients_total{worker="%d"}`, top),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestWorkerHealthSnapshot pins the worker-side /healthz payload fields.
func TestWorkerHealthSnapshot(t *testing.T) {
	p, err := placement.CR(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := engine.NewISGC(isgc.New(p, 7))
	if err != nil {
		t.Fatal(err)
	}
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	data := testData(t)
	res := launchClusterHealth(t, st, data, mdl)
	if res == nil {
		t.Fatal("no result")
	}
}

// launchClusterHealth is a small variant of launchCluster that checks
// Worker.Health before, during and after a run.
func launchClusterHealth(t *testing.T, st engine.Strategy, data *dataset.Dataset, mdl model.Model) *engine.Result {
	t.Helper()
	master, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
		LearningRate: 0.3, W: st.N(), MaxSteps: 3, Seed: 42,
		AcceptTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Partition(st.N())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < st.N(); i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pids := st.Partitions(i)
			loaders := make([]*dataset.Loader, len(pids))
			for j, d := range pids {
				var lerr error
				loaders[j], lerr = dataset.NewLoader(parts[d], 16, 42+int64(d)*7919)
				if lerr != nil {
					t.Error(lerr)
					return
				}
			}
			wk, err := NewWorker(WorkerConfig{
				Addr: master.Addr(), ID: i, Partitions: pids, Loaders: loaders,
				Model: mdl, Encode: SumEncoder(),
			})
			if err != nil {
				t.Error(err)
				return
			}
			h := wk.Health()
			if h.ID != i || !h.Connected || h.StepsServed != 0 {
				t.Errorf("fresh worker health = %+v", h)
			}
			steps, err := wk.Run()
			if err != nil {
				t.Error(err)
				return
			}
			h = wk.Health()
			if h.Connected {
				t.Errorf("worker %d health still connected after Run", i)
			}
			if int(h.StepsServed) != steps {
				t.Errorf("worker %d health steps = %d, Run returned %d", i, h.StepsServed, steps)
			}
		}()
	}
	res, err := master.Run()
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	wg.Wait()
	return res
}
