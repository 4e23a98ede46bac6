package events

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestParseLevel(t *testing.T) {
	for name, want := range map[string]Level{
		"debug": LevelDebug, "info": LevelInfo, "warn": LevelWarn,
		"error": LevelError, "INFO": LevelInfo, "Warn": LevelWarn,
	} {
		got, err := ParseLevel(name)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Error("ParseLevel must reject unknown names")
	}
}

func TestLogEmitsJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := New(Config{Writer: &buf})
	l.Info("test.started", "hello", NoStep, NoWorker, nil)
	l.Warn("test.worker_evicted", "gone", 3, 1, Fields{"reason": "connection_lost"})
	l.Debug("test.detail", "fine print", 4, NoWorker, nil)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatalf("line 2 is not JSON: %v", err)
	}
	if e.Level != LevelWarn || e.Type != "test.worker_evicted" || e.Step != 3 || e.Worker != 1 {
		t.Fatalf("decoded %+v", e)
	}
	if e.Fields["reason"] != "connection_lost" {
		t.Fatalf("fields = %v", e.Fields)
	}
	if e.Time.IsZero() {
		t.Fatal("event timestamp missing")
	}
}

func TestLogMinLevelFilters(t *testing.T) {
	var buf bytes.Buffer
	l := New(Config{Writer: &buf, MinLevel: LevelWarn})
	l.Debug("x", "", NoStep, NoWorker, nil)
	l.Info("x", "", NoStep, NoWorker, nil)
	l.Warn("x", "", NoStep, NoWorker, nil)
	l.Error("x", "", NoStep, NoWorker, nil)
	if got := strings.Count(buf.String(), "\n"); got != 2 {
		t.Fatalf("min level warn kept %d lines, want 2", got)
	}
	if l.Count(LevelDebug) != 0 || l.Count(LevelWarn) != 1 || l.Count(LevelError) != 1 {
		t.Fatalf("counts debug=%d warn=%d error=%d", l.Count(LevelDebug), l.Count(LevelWarn), l.Count(LevelError))
	}
	if len(l.Snapshot()) != 2 {
		t.Fatalf("ring kept %d events, want 2", len(l.Snapshot()))
	}
	if l.Enabled(LevelInfo) || !l.Enabled(LevelWarn) || !l.Enabled(LevelError) {
		t.Fatal("Enabled disagrees with the min level")
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	l.Info("x", "", NoStep, NoWorker, nil) // must not panic
	if l.Snapshot() != nil || l.Count(LevelInfo) != 0 || l.Total() != 0 || l.WriteErrors() != 0 {
		t.Fatal("nil log must report zeros")
	}
	if l.Enabled(LevelError) {
		t.Fatal("a nil log records nothing, so no level is enabled")
	}
}

// errWriter fails every write; the log must count, not propagate.
type errWriter struct{}

func (errWriter) Write(p []byte) (int, error) { return 0, bufio.ErrBufferFull }

func TestLogCountsWriteErrors(t *testing.T) {
	l := New(Config{Writer: errWriter{}})
	l.Info("x", "", NoStep, NoWorker, nil)
	if l.WriteErrors() != 1 {
		t.Fatalf("write errors = %d, want 1", l.WriteErrors())
	}
	if len(l.Snapshot()) != 1 {
		t.Fatal("ring must keep the event even when the sink fails")
	}
}

// TestLogConcurrentEmit exercises the JSONL writer under contention: run
// with -race, and every emitted line must still parse individually.
func TestLogConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	l := New(Config{Writer: &buf})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Info("test.concurrent", "m", i, g, Fields{"g": g})
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for i, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %d corrupted under concurrency: %v\n%s", i+1, err, line)
		}
	}
	if l.Total() != 400 {
		t.Fatalf("total = %d, want 400", l.Total())
	}
}

func TestLevelJSONRoundTrip(t *testing.T) {
	for _, lv := range []Level{LevelDebug, LevelInfo, LevelWarn, LevelError} {
		data, err := json.Marshal(lv)
		if err != nil {
			t.Fatal(err)
		}
		var back Level
		if err := json.Unmarshal(data, &back); err != nil || back != lv {
			t.Fatalf("round trip %v -> %s -> %v (%v)", lv, data, back, err)
		}
	}
	var lv Level
	if err := json.Unmarshal([]byte(`"nope"`), &lv); err == nil {
		t.Fatal("unmarshal must reject unknown level names")
	}
}
