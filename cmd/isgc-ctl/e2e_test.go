package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"isgc/internal/e2etest"
)

// buildPlaneBinaries compiles the control-plane master, the fleet worker,
// and this CLI into a temp directory.
func buildPlaneBinaries(t *testing.T) (masterBin, workerBin, ctlBin string) {
	t.Helper()
	dir := t.TempDir()
	masterBin = filepath.Join(dir, "isgc-master")
	workerBin = filepath.Join(dir, "isgc-worker")
	ctlBin = filepath.Join(dir, "isgc-ctl")
	for _, b := range []struct{ out, pkg string }{
		{masterBin, "isgc/cmd/isgc-master"},
		{workerBin, "isgc/cmd/isgc-worker"},
		{ctlBin, "isgc/cmd/isgc-ctl"},
	} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", b.pkg, err, out)
		}
	}
	return masterBin, workerBin, ctlBin
}

// ctl runs one isgc-ctl command against the plane and returns its output.
func ctl(t *testing.T, ctlBin, base string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(ctlBin, append([]string{"-addr", base, "-timeout", "150s"}, args...)...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// planeJobs decodes GET /jobs — the test's window into assignments, used
// to pick a victim agent that is actually running the elastic job.
func planeJobs(t *testing.T, base string) []map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Jobs []map[string]any `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Jobs
}

// scrapeGauge fetches a Prometheus text exposition over HTTP and returns
// the value of the unlabeled sample name.
func scrapeGauge(t *testing.T, url, name string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return 0, false
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

// TestE2EControlPlane is the control plane's process-level acceptance run:
// a `-controlplane` master and six fleet workers as real processes,
// isgc-ctl submits three jobs, the running elastic job's metrics are read
// off /jobs/{id}/metrics, one worker process is SIGKILLed while its job
// runs, and `isgc-ctl wait` must see all three jobs complete — the
// affected one after a live re-placement.
func TestE2EControlPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary e2e in -short mode")
	}
	masterBin, workerBin, ctlBin := buildPlaneBinaries(t)

	stateDir := filepath.Join(t.TempDir(), "state")
	// The plane binds the fleet listener before the admin server, so an
	// answering admin API means agents can join — agents dial once and
	// exit on a refused connection, so don't start them earlier.
	master, addrs := e2etest.StartListening(t, 2,
		func(addrs []string) *exec.Cmd {
			return exec.Command(masterBin,
				"-controlplane", "-fleet-addr", addrs[0], "-metrics-addr", addrs[1], "-state-dir", stateDir)
		},
		func(_ *e2etest.Child, addrs []string) bool {
			resp, err := http.Get("http://" + addrs[1] + "/fleet")
			if err == nil {
				resp.Body.Close()
			}
			return err == nil
		})
	fleetAddr, base := addrs[0], "http://"+addrs[1]
	masterOut := master.Out

	// Six fleet agents with stable names, so GET /jobs assignments map
	// straight to processes.
	workers := make(map[string]*exec.Cmd, 6)
	workerOuts := make(map[string]*e2etest.Output, 6)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("w-%d", i)
		w := exec.Command(workerBin, "-fleet", fleetAddr, "-agent-name", name)
		wOut := &e2etest.Output{}
		w.Stdout = wOut
		w.Stderr = wOut
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		workers[name] = w
		workerOuts[name] = wOut
	}
	defer func() {
		for _, w := range workers {
			_ = w.Process.Kill()
			_ = w.Wait()
		}
	}()

	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("worker w-0:\n%s", workerOuts["w-0"])
		}
	})
	master.Poll(t, 60*time.Second, "fleet never reached 6 agents", func() bool {
		resp, err := http.Get(base + "/fleet")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var out struct {
			Agents []struct {
				Alive bool `json:"alive"`
			} `json:"agents"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&out)
		alive := 0
		for _, a := range out.Agents {
			if a.Alive {
				alive++
			}
		}
		return alive == 6
	})

	// Two quick jobs via flags, one long "elastic" job via a full spec:
	// tight liveness windows plus generation-0 delays keep it running long
	// enough for the SIGKILL below to land mid-run.
	submit := func(args ...string) string {
		out, err := ctl(t, ctlBin, base, append([]string{"submit"}, args...)...)
		if err != nil {
			t.Fatalf("submit: %v\n%s", err, out)
		}
		return strings.TrimSpace(out)
	}
	idQuick1 := submit("-name", "quick-1", "-scheme", "cr", "-n", "3", "-c", "2", "-steps", "30", "-seed", "42")
	idQuick2 := submit("-name", "quick-2", "-scheme", "cr", "-n", "3", "-c", "2", "-steps", "30", "-seed", "43")
	specPath := filepath.Join(t.TempDir(), "elastic.json")
	spec := `{
		"name": "elastic",
		"scheme": {"scheme": "cr", "n": 3, "c": 2},
		"data": {"samples": 240, "features": 6, "classes": 3, "batch": 8, "separation": 1.5, "seed": 7},
		"max_steps": 80,
		"liveness_timeout": 300000000,
		"permanent_after": 600000000,
		"faults": [
			{"worker": 0, "crash_at_step": -1, "delay": 30000000},
			{"worker": 1, "crash_at_step": -1, "delay": 30000000},
			{"worker": 2, "crash_at_step": -1, "delay": 30000000}
		]
	}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	idElastic := submit("-spec", specPath)

	// Find an agent actually assigned to the elastic job while it runs,
	// then SIGKILL its process — an abrupt machine loss, no goodbye.
	var victim string
	master.Poll(t, 60*time.Second, "elastic job never got running assignments", func() bool {
		for _, j := range planeJobs(t, base) {
			if j["id"] != idElastic || j["state"] != "running" {
				continue
			}
			step, _ := j["step"].(float64)
			ws, _ := j["workers"].([]any)
			if step >= 5 && len(ws) > 0 {
				last := ws[len(ws)-1].(map[string]any)
				victim, _ = last["agent"].(string)
			}
		}
		return victim != ""
	})
	// Every job here runs cr(3,2), whose best decode recovers 2 of 3
	// partitions: the running elastic job's own metrics say so, which is
	// the series a recovered-fraction floor rule in the scraper reads.
	master.Poll(t, 60*time.Second, "elastic job's metrics never showed recovered fraction 2/3", func() bool {
		frac, ok := scrapeGauge(t, base+"/jobs/"+idElastic+"/metrics", "isgc_master_recovered_fraction")
		return ok && math.Abs(frac-2.0/3) < 1e-9
	})
	w, ok := workers[victim]
	if !ok {
		t.Fatalf("plane assigned unknown agent %q", victim)
	}
	if err := w.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = w.Wait()
	delete(workers, victim)

	// The CLI gate CI asserts: wait exits 0 only when every job completes.
	out, err := ctl(t, ctlBin, base, "wait", idQuick1, idQuick2, idElastic)
	if err != nil {
		t.Fatalf("isgc-ctl wait: %v\n%s\nmaster:\n%s", err, out, masterOut.String())
	}
	for _, id := range []string{idQuick1, idQuick2, idElastic} {
		if !strings.Contains(out, id+": completed") {
			t.Fatalf("wait output missing %q:\n%s", id+": completed", out)
		}
	}

	// The killed agent's job must have gone through a live re-placement.
	for _, j := range planeJobs(t, base) {
		if j["id"] != idElastic {
			continue
		}
		if repl, _ := j["replacements"].(float64); repl == 0 {
			t.Fatalf("elastic job completed without a re-placement: %v", j)
		}
		for _, wv := range j["workers"].([]any) {
			if wv.(map[string]any)["agent"] == victim {
				t.Fatalf("killed agent %s still in the final assignment: %v", victim, j)
			}
		}
	}

	// Status renders all three jobs.
	out, err = ctl(t, ctlBin, base, "status")
	if err != nil {
		t.Fatalf("isgc-ctl status: %v\n%s", err, out)
	}
	for _, id := range []string{idQuick1, idQuick2, idElastic} {
		if !strings.Contains(out, id) {
			t.Fatalf("status output missing %s:\n%s", id, out)
		}
	}
}
