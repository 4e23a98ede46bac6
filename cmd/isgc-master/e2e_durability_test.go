package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"isgc/internal/checkpoint"
	"isgc/internal/e2etest"
)

// buildClusterBinaries compiles the real master and worker executables into
// a fresh temp directory (the go build cache makes repeat builds cheap).
func buildClusterBinaries(t *testing.T) (masterBin, workerBin string) {
	t.Helper()
	dir := t.TempDir()
	masterBin = filepath.Join(dir, "isgc-master")
	workerBin = filepath.Join(dir, "isgc-worker")
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
	return masterBin, workerBin
}

// startWorkerProcs launches n worker processes and returns the Cmds plus a
// channel that receives each worker's exit error (nil = clean exit 0) as it
// terminates. env, when not nil, is added to each worker's environment.
func startWorkerProcs(t *testing.T, workerBin string, n int, outs []*e2etest.Output, env []string, extra func(i int) []string) ([]*exec.Cmd, chan error) {
	t.Helper()
	cmds := make([]*exec.Cmd, n)
	exits := make(chan error, n)
	for i := 0; i < n; i++ {
		args := []string{
			"-id", fmt.Sprint(i), "-n", "4", "-c", "2", "-scheme", "cr", "-seed", "42",
		}
		args = append(args, extra(i)...)
		w := exec.Command(workerBin, args...)
		if env != nil {
			w.Env = append(os.Environ(), env...)
		}
		w.Stdout = outs[i]
		w.Stderr = outs[i]
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		cmds[i] = w
		go func(w *exec.Cmd) { exits <- w.Wait() }(w)
	}
	return cmds, exits
}

// readRunDump parses a -records-out file.
func readRunDump(t *testing.T, path string) runDump {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("records file: %v", err)
	}
	var d runDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("records file %s is not valid JSON: %v", path, err)
	}
	return d
}

// waitProc waits for a process with a deadline.
func waitProc(t *testing.T, what string, cmd *exec.Cmd, timeout time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		t.Fatalf("%s did not exit within %v", what, timeout)
		return nil
	}
}

// TestE2EKillAndRestore is the headline durability acceptance check at the
// process level: a master is killed with SIGKILL mid-run — no goodbye, no
// final checkpoint — and a new master process restarted with -restore on the
// same address finishes the run against the surviving worker fleet. The
// completed run's step records and final params must be bit-identical to an
// uninterrupted reference run from the checkpoint boundary on — with the
// reference at GOMAXPROCS 1 and the two lives at GOMAXPROCS 4, since no bit
// of a run may depend on the core count.
func TestE2EKillAndRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary e2e in -short mode")
	}
	masterBin, workerBin := buildClusterBinaries(t)
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpt")
	refPath := filepath.Join(dir, "ref.json")
	outPath := filepath.Join(dir, "restored.json")

	// Shared run shape: CR(4,2), wait for all 4 (bit-deterministic gather
	// set), fixed step count, and a dataset of three sample blocks so the
	// master's loss is split over the compute helpers at GOMAXPROCS 4.
	samples := []string{"-samples", "600"}
	common := append([]string{
		"-n", "4", "-c", "2", "-scheme", "cr", "-w", "0",
		"-steps", "12", "-threshold", "0", "-seed", "42",
	}, samples...)
	oneCore, fourCores := []string{"GOMAXPROCS=1"}, []string{"GOMAXPROCS=4"}

	// Uninterrupted reference run (fast workers, no checkpoints).
	refAddr := e2etest.FreeAddr(t)
	refMaster := exec.Command(masterBin, append([]string{"-addr", refAddr, "-records-out", refPath}, common...)...)
	refMaster.Env = append(os.Environ(), oneCore...)
	refOut := &e2etest.Output{}
	refMaster.Stdout = refOut
	refMaster.Stderr = refOut
	if err := refMaster.Start(); err != nil {
		t.Fatal(err)
	}
	refWorkerOuts := make([]*e2etest.Output, 4)
	for i := range refWorkerOuts {
		refWorkerOuts[i] = &e2etest.Output{}
	}
	_, refExits := startWorkerProcs(t, workerBin, 4, refWorkerOuts, oneCore, func(i int) []string {
		return append([]string{"-addr", refAddr}, samples...)
	})
	if err := waitProc(t, "reference master", refMaster, 90*time.Second); err != nil {
		t.Fatalf("reference master: %v\n%s", err, refOut.String())
	}
	for i := 0; i < 4; i++ {
		if err := <-refExits; err != nil {
			t.Fatalf("reference worker: %v", err)
		}
	}
	ref := readRunDump(t, refPath)
	if ref.Steps != 12 || ref.Interrupted {
		t.Fatalf("reference run: steps=%d interrupted=%v, want a full 12-step run", ref.Steps, ref.Interrupted)
	}

	// First life: same run with checkpoints every 3 steps and deliberately
	// slow workers, so the SIGKILL below provably lands mid-run.
	addr := e2etest.FreeAddr(t)
	m1 := exec.Command(masterBin, append([]string{
		"-addr", addr, "-checkpoint-dir", ckptDir, "-checkpoint-every", "3", "-lease-ttl", "1s",
	}, common...)...)
	m1.Env = append(os.Environ(), fourCores...)
	m1Out := &e2etest.Output{}
	m1.Stdout = m1Out
	m1.Stderr = m1Out
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m1.Process.Kill() }()
	workerOuts := make([]*e2etest.Output, 4)
	for i := range workerOuts {
		workerOuts[i] = &e2etest.Output{}
	}
	workers, exits := startWorkerProcs(t, workerBin, 4, workerOuts, fourCores, func(i int) []string {
		// The reconnect budget is what lets the fleet survive the master's
		// death and rejoin its successor on the same address.
		return append([]string{"-addr", addr, "-delay", "40ms", "-reconnect", "60s"}, samples...)
	})
	defer func() {
		for _, w := range workers {
			_ = w.Process.Kill()
		}
	}()

	// Wait for the first durable checkpoint file, then SIGKILL the master:
	// the hard-crash case — no signal handler, no final checkpoint, the
	// lease left in place.
	deadline := time.Now().Add(60 * time.Second)
	for {
		entries, _ := os.ReadDir(ckptDir)
		found := false
		for _, e := range entries {
			// Only a fully renamed checkpoint counts: Save writes through a
			// "ckpt-*.json.tmp-*" temp file in the same dir, and killing the
			// master while that is still mid-write leaves nothing to restore.
			if strings.HasPrefix(e.Name(), "ckpt-") && !strings.Contains(e.Name(), ".tmp") {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint ever appeared in %s\n%s", ckptDir, m1Out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := m1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = m1.Wait() // reap; a killed process reports an error by design

	// Second life: restore on the same address. The workers' reconnect
	// loops find it, re-register with their completed step counts, and the
	// run finishes.
	m2 := exec.Command(masterBin, append([]string{
		"-addr", addr, "-checkpoint-dir", ckptDir, "-checkpoint-every", "3", "-restore",
		"-records-out", outPath,
	}, common...)...)
	m2.Env = append(os.Environ(), fourCores...)
	m2Out := &e2etest.Output{}
	m2.Stdout = m2Out
	m2.Stderr = m2Out
	if err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = m2.Process.Kill() }()
	if err := waitProc(t, "restored master", m2, 90*time.Second); err != nil {
		t.Fatalf("restored master: %v\n%s", err, m2Out.String())
	}
	if !strings.Contains(m2Out.String(), "done: steps=") {
		t.Fatalf("restored master never finished the run:\n%s", m2Out.String())
	}
	for i := 0; i < 4; i++ {
		if err := <-exits; err != nil {
			t.Fatalf("worker did not exit cleanly after the restored run: %v", err)
		}
	}

	// Crash equivalence: the restored life's records must match the
	// reference bit for bit from the checkpoint boundary on (Elapsed is
	// wall clock and legitimately differs), and the final params exactly.
	out2 := readRunDump(t, outPath)
	if out2.Interrupted || len(out2.Records) == 0 {
		t.Fatalf("restored run: interrupted=%v records=%d", out2.Interrupted, len(out2.Records))
	}
	if len(out2.Records) >= len(ref.Records) {
		t.Fatalf("restored life replayed the whole run (%d records); the kill did not land mid-run", len(out2.Records))
	}
	offset := -1
	for i, r := range ref.Records {
		if r.Step == out2.Records[0].Step {
			offset = i
			break
		}
	}
	if offset < 0 {
		t.Fatalf("restored life starts at step %d, absent from the reference", out2.Records[0].Step)
	}
	if want := len(ref.Records) - offset; len(out2.Records) != want {
		t.Fatalf("restored life recorded %d steps, reference has %d from the boundary on", len(out2.Records), want)
	}
	for i := range out2.Records {
		got, want := out2.Records[i], ref.Records[offset+i]
		got.Elapsed, want.Elapsed = 0, 0
		if !reflect.DeepEqual(got, want) || math.Float64bits(got.Loss) != math.Float64bits(want.Loss) {
			t.Fatalf("record %d diverged across the kill/restore:\n restored %+v\n      ref %+v", i, got, want)
		}
	}
	if len(out2.Params) != len(ref.Params) {
		t.Fatalf("restored run has %d params, reference %d", len(out2.Params), len(ref.Params))
	}
	for j := range ref.Params {
		if math.Float64bits(out2.Params[j]) != math.Float64bits(ref.Params[j]) {
			t.Fatalf("param %d is %v after kill/restore, %v in the reference", j, out2.Params[j], ref.Params[j])
		}
	}
}

// TestE2EGracefulSignals covers the clean-shutdown half of durability: a
// SIGTERM'd worker persists its resumable state and exits 0; a SIGTERM'd
// master writes a final non-Completed checkpoint, reports the run as
// resumable, and exits 0; the orphaned workers drain their reconnect budget
// and also exit 0. A master lingering on -metrics-linger after a finished
// run also exits 0 on SIGTERM, at once.
func TestE2EGracefulSignals(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping binary e2e in -short mode")
	}
	masterBin, workerBin := buildClusterBinaries(t)
	t.Run("mid-run", func(t *testing.T) { signalMidRun(t, masterBin, workerBin) })
	t.Run("metrics-linger", func(t *testing.T) { signalDuringLinger(t, masterBin, workerBin) })
}

// signalMidRun SIGTERMs a worker and then the master of a running job.
func signalMidRun(t *testing.T, masterBin, workerBin string) {
	ckptDir := filepath.Join(t.TempDir(), "ckpt")

	addr := e2etest.FreeAddr(t)
	master := exec.Command(masterBin,
		"-addr", addr, "-n", "4", "-c", "2", "-scheme", "cr", "-w", "0",
		"-steps", "500", "-threshold", "0", "-seed", "42",
		"-checkpoint-dir", ckptDir, "-checkpoint-every", "2", "-lease-ttl", "1s")
	masterOut := &e2etest.Output{}
	master.Stdout = masterOut
	master.Stderr = masterOut
	if err := master.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = master.Process.Kill() }()

	workerOuts := make([]*e2etest.Output, 4)
	for i := range workerOuts {
		workerOuts[i] = &e2etest.Output{}
	}
	workers, exits := startWorkerProcs(t, workerBin, 4, workerOuts, nil, func(i int) []string {
		// A short reconnect budget: once the master goes away for good the
		// orphans must give up and exit cleanly, not hang the test.
		return []string{"-addr", addr, "-delay", "30ms", "-reconnect", "2s", "-checkpoint-dir", ckptDir}
	})
	defer func() {
		for _, w := range workers {
			_ = w.Process.Kill()
		}
	}()

	// Let the run make real progress: wait for a master checkpoint at
	// step >= 4 (checkpoint file names embed the step).
	deadline := time.Now().Add(60 * time.Second)
	for {
		entries, _ := os.ReadDir(ckptDir)
		reached := 0
		for _, e := range entries {
			var step int
			if n, _ := fmt.Sscanf(e.Name(), "ckpt-%d.json", &step); n == 1 && step > reached {
				reached = step
			}
		}
		if reached >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("master never checkpointed step 4\n%s", masterOut.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// SIGTERM worker 2 mid-run: exit 0 and a persisted WorkerState under
	// the shared checkpoint directory.
	if err := workers[2].Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var exitErrs []error
	select {
	case err := <-exits:
		exitErrs = append(exitErrs, err)
	case <-time.After(30 * time.Second):
		t.Fatalf("worker 2 did not exit after SIGTERM\n%s", workerOuts[2].String())
	}
	if exitErrs[0] != nil {
		t.Fatalf("SIGTERM'd worker exited non-zero: %v\n%s", exitErrs[0], workerOuts[2].String())
	}
	wstore, err := checkpoint.NewStore(filepath.Join(ckptDir, "worker-2"), checkpoint.DefaultRetain)
	if err != nil {
		t.Fatal(err)
	}
	var ws checkpoint.WorkerState
	if _, err := wstore.Latest(&ws); err != nil {
		t.Fatalf("SIGTERM'd worker left no checkpoint: %v", err)
	}
	if ws.ID != 2 || ws.Steps < 1 || ws.DelayDraws == 0 {
		t.Fatalf("worker state = %+v, want ID 2 with progress and RNG position", ws)
	}

	// SIGTERM the master mid-run: exit 0, an "interrupted" report, and a
	// loadable final checkpoint that is not marked Completed. CR(4,2)
	// tolerates the missing worker, so the run is still going.
	if err := master.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := waitProc(t, "master", master, 30*time.Second); err != nil {
		t.Fatalf("SIGTERM'd master exited non-zero: %v\n%s", err, masterOut.String())
	}
	if !strings.Contains(masterOut.String(), "interrupted:") {
		t.Fatalf("master output missing the interrupted/resumable report:\n%s", masterOut.String())
	}
	store, err := checkpoint.NewStore(ckptDir, checkpoint.DefaultRetain)
	if err != nil {
		t.Fatal(err)
	}
	var cst checkpoint.State
	if _, err := store.Latest(&cst); err != nil {
		t.Fatalf("SIGTERM'd master left no loadable checkpoint: %v", err)
	}
	if cst.Completed || cst.Step < 1 {
		t.Fatalf("final checkpoint = step %d completed=%v, want an in-progress snapshot", cst.Step, cst.Completed)
	}

	// The three orphans drain their 2s reconnect budget and exit 0.
	for i := 0; i < 3; i++ {
		select {
		case err := <-exits:
			if err != nil {
				t.Fatalf("orphaned worker exited non-zero: %v", err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("orphaned workers did not exit after the reconnect budget")
		}
	}
}

// signalDuringLinger SIGTERMs a master that finished its run and lingers on
// -metrics-linger 60s: the signal ends the linger, so the process exits 0
// within seconds instead of running the minute out.
func signalDuringLinger(t *testing.T, masterBin, workerBin string) {
	master, addrs := e2etest.StartListening(t, 2,
		func(addrs []string) *exec.Cmd {
			return exec.Command(masterBin,
				"-addr", addrs[0], "-n", "4", "-c", "2", "-scheme", "cr", "-w", "0",
				"-steps", "5", "-threshold", "0", "-seed", "42",
				"-metrics-addr", addrs[1], "-metrics-linger", "60s")
		},
		func(c *e2etest.Child, _ []string) bool { return strings.Contains(c.Out.String(), "master: ") })
	workerOuts := make([]*e2etest.Output, 4)
	for i := range workerOuts {
		workerOuts[i] = &e2etest.Output{}
	}
	workers, _ := startWorkerProcs(t, workerBin, 4, workerOuts, nil, func(int) []string {
		return []string{"-addr", addrs[0]}
	})
	defer func() {
		for _, w := range workers {
			_ = w.Process.Kill()
		}
	}()
	master.Poll(t, 60*time.Second, "master never reached its linger", func() bool {
		return strings.Contains(master.Out.String(), "metrics: lingering")
	})
	if err := master.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	const within = 5 * time.Second
	deadline := time.Now().Add(within)
	for !master.Exited() {
		if time.Now().After(deadline) {
			t.Fatalf("a lingering master was still running %v after SIGTERM\n%s", within, master.Out)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code := master.Cmd.ProcessState.ExitCode(); code != 0 {
		t.Fatalf("a lingering master SIGTERM'd after its run exited %d, want 0\n%s", code, master.Out)
	}
}
