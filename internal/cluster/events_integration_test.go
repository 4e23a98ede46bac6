package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"isgc/internal/events"
	"isgc/internal/straggler"
)

// TestEventLogCapturesCrashAndRejoin drives a CR(3,2) cluster through a
// mid-run crash (worker 2) and a disconnect-then-rejoin round trip
// (worker 1) with a shared JSONL event log attached, then replays the log:
// every line must parse, the lifecycle events must appear in causal order
// (eviction before the first degraded step before the rejoin), and a run
// that ends successfully must not have logged anything at error level.
func TestEventLogCapturesCrashAndRejoin(t *testing.T) {
	var buf bytes.Buffer
	ev := events.New(events.Config{Writer: &buf, MinLevel: events.LevelDebug})
	st := newCRStrategy(t, 3)
	faults := []straggler.Fault{
		nil,
		straggler.DisconnectAt{Step: 5},
		straggler.CrashAt{Step: 2},
	}
	// Worker 0 paces the run: once worker 2 is dead and worker 1 has dropped
	// off at step 5, it alone serves the last three steps, and without a
	// delay it finishes them before worker 1's redial — refused while the
	// master has not yet noticed the old connection close — gets its second
	// attempt after the 25 ms backoff.
	delays := []straggler.Model{straggler.Constant{D: 30 * time.Millisecond}, nil, nil}
	master, res, err := runFaultyCluster(t, st, faultyOpts{
		w: 3, maxSteps: 8, faults: faults, delays: delays,
		reconnect: 10 * time.Second, events: ev,
	})
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	if res.Run.Steps() != 8 {
		t.Fatalf("steps = %d, want 8", res.Run.Steps())
	}
	if master.Rejoins() != 1 {
		t.Fatalf("rejoins = %d, want 1 (worker 1's round trip)", master.Rejoins())
	}
	if ev.WriteErrors() != 0 {
		t.Fatalf("event log reported %d write errors", ev.WriteErrors())
	}

	// Replay the JSONL stream. Track the line index of each first
	// occurrence so causal ordering is checkable.
	type entry struct {
		Level  string `json:"level"`
		Type   string `json:"type"`
		Step   int    `json:"step"`
		Worker int    `json:"worker"`
		Msg    string `json:"msg"`
	}
	first := map[string]int{}
	var nLines int
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		nLines++
		var e entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if e.Type == "" || e.Msg == "" {
			t.Fatalf("line %d is missing type or msg: %s", i+1, line)
		}
		if e.Level == "error" {
			t.Errorf("successful run logged at error level: %s", line)
		}
		if _, ok := first[e.Type]; !ok {
			first[e.Type] = i
		}
	}
	if nLines < 10 {
		t.Fatalf("suspiciously few event lines (%d) for an 8-step faulty run", nLines)
	}

	for _, want := range []string{
		"master.run_started",
		"master.worker_registered",
		"master.worker_evicted",
		"master.step_degraded",
		"master.worker_rejoined",
		"master.run_finished",
		"worker.connected",
		"worker.crash_injected",
		"worker.disconnect_injected",
		"worker.reconnected",
	} {
		if _, ok := first[want]; !ok {
			t.Errorf("event log missing %q (saw %v)", want, keys(first))
		}
	}
	if t.Failed() {
		return
	}

	// Causal order: worker 2's crash is noticed (eviction) before the
	// shrunken fleet forces the first degraded step, and worker 1's rejoin
	// at step 5 comes after both.
	evicted, degraded, rejoined := first["master.worker_evicted"], first["master.step_degraded"], first["master.worker_rejoined"]
	if !(evicted < degraded) {
		t.Errorf("eviction (line %d) must precede the first degraded step (line %d)", evicted+1, degraded+1)
	}
	if !(degraded < rejoined) {
		t.Errorf("first degraded step (line %d) must precede the rejoin (line %d)", degraded+1, rejoined+1)
	}
	if !(first["master.run_started"] < first["master.worker_registered"]) {
		t.Error("run_started must be the master's first lifecycle event")
	}
}

func keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
