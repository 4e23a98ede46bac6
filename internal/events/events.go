// Package events is the tracing and structured-logging layer of the
// runtime: a leveled JSONL event log backed by a bounded in-memory ring
// buffer, and a span timeline exportable as a Chrome trace-event file
// (loadable in ui.perfetto.dev). It is stdlib-only, race-safe, and every
// entry point is nil-receiver-safe so instrumentation can be disabled by
// simply not providing a Log or Timeline — the hot paths then pay one
// branch, exactly like the metrics package.
//
// The paper's evaluation reasons about *which* workers straggle and what
// the decoder does about the subset that arrived; this package is the
// runtime counterpart: per-step master spans (broadcast → gather → decode
// → update), per-worker compute spans with worker-reported durations, and
// structured events for every liveness transition (eviction, rejoin,
// degraded step) that previously happened silently.
package events

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level is the severity of an event.
type Level int8

const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

var levelNames = [...]string{"debug", "info", "warn", "error"}

func (l Level) String() string {
	if l < LevelDebug || l > LevelError {
		return fmt.Sprintf("level(%d)", int8(l))
	}
	return levelNames[l]
}

// MarshalJSON renders the level as its lowercase name.
func (l Level) MarshalJSON() ([]byte, error) { return json.Marshal(l.String()) }

// UnmarshalJSON parses a lowercase level name.
func (l *Level) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	lv, err := ParseLevel(s)
	if err != nil {
		return err
	}
	*l = lv
	return nil
}

// ParseLevel converts a level name ("debug", "info", "warn", "error") to a
// Level; it accepts any case.
func ParseLevel(s string) (Level, error) {
	for i, name := range levelNames {
		if strings.EqualFold(s, name) {
			return Level(i), nil
		}
	}
	return LevelInfo, fmt.Errorf("events: unknown level %q (want debug, info, warn, or error)", s)
}

// Fields carries optional structured context on an event.
type Fields = map[string]any

// NoStep and NoWorker mark an event as not scoped to a step or worker.
const (
	NoStep   = -1
	NoWorker = -1
)

// Event is one structured log entry. Step and Worker are -1 (NoStep,
// NoWorker) when the event is not scoped to a training step or a worker.
type Event struct {
	Time   time.Time `json:"ts"`
	Level  Level     `json:"level"`
	Type   string    `json:"type"`
	Step   int       `json:"step"`
	Worker int       `json:"worker"`
	Msg    string    `json:"msg"`
	Fields Fields    `json:"fields,omitempty"`
}

// Config configures a Log.
type Config struct {
	// Writer, when non-nil, receives one JSON object per event, newline-
	// terminated (JSONL). The Log serializes writes; the writer itself
	// need not be concurrency-safe.
	Writer io.Writer
	// MinLevel drops events below it (default LevelDebug: keep all).
	MinLevel Level
	// RingSize bounds the in-memory ring buffer backing Snapshot and the
	// /debug/events endpoint (default 1024; negative disables the ring).
	RingSize int
}

// Log is a leveled, race-safe structured event log: every emitted event is
// appended to a bounded ring buffer (for live inspection) and, when a
// writer is configured, encoded as one JSONL line. A nil *Log discards
// everything — callers instrument unconditionally and the zero branch
// decides.
type Log struct {
	mu  sync.Mutex
	w   io.Writer
	min Level

	ring   *Ring
	counts [len(levelNames)]atomic.Uint64
	// writeErrs counts failed sink writes; the log never propagates them
	// (observability must not take the training plane down).
	writeErrs atomic.Uint64
}

// New builds a Log from cfg.
func New(cfg Config) *Log {
	l := &Log{w: cfg.Writer, min: cfg.MinLevel}
	if cfg.RingSize >= 0 {
		l.ring = NewRing(cfg.RingSize)
	}
	return l
}

// Enabled reports whether an event at level would be recorded, so a call
// site can skip building its fields when it would not. Nil-safe: a nil Log
// records nothing.
func (l *Log) Enabled(level Level) bool { return l != nil && level >= l.min }

// Emit records one event. Safe for concurrent use and on a nil receiver.
// fields may be nil; the map is stored as-is, so callers must not mutate
// it afterwards.
func (l *Log) Emit(level Level, typ, msg string, step, worker int, fields Fields) {
	if l == nil || level < l.min {
		return
	}
	e := Event{
		Time:   time.Now(),
		Level:  level,
		Type:   typ,
		Step:   step,
		Worker: worker,
		Msg:    msg,
		Fields: fields,
	}
	if level >= LevelDebug && level <= LevelError {
		l.counts[level].Add(1)
	}
	if l.ring != nil {
		l.ring.Append(e)
	}
	if l.w == nil {
		return
	}
	// Marshal outside the lock; only the write itself is serialized.
	line, err := json.Marshal(e)
	if err != nil {
		l.writeErrs.Add(1)
		return
	}
	line = append(line, '\n')
	l.mu.Lock()
	_, err = l.w.Write(line)
	l.mu.Unlock()
	if err != nil {
		l.writeErrs.Add(1)
	}
}

// Debug emits a LevelDebug event.
func (l *Log) Debug(typ, msg string, step, worker int, fields Fields) {
	l.Emit(LevelDebug, typ, msg, step, worker, fields)
}

// Info emits a LevelInfo event.
func (l *Log) Info(typ, msg string, step, worker int, fields Fields) {
	l.Emit(LevelInfo, typ, msg, step, worker, fields)
}

// Warn emits a LevelWarn event.
func (l *Log) Warn(typ, msg string, step, worker int, fields Fields) {
	l.Emit(LevelWarn, typ, msg, step, worker, fields)
}

// Error emits a LevelError event.
func (l *Log) Error(typ, msg string, step, worker int, fields Fields) {
	l.Emit(LevelError, typ, msg, step, worker, fields)
}

// Snapshot returns the ring's current contents, oldest first. Safe during
// concurrent emission; nil when the ring is disabled or the log is nil.
func (l *Log) Snapshot() []Event {
	if l == nil || l.ring == nil {
		return nil
	}
	return l.ring.Snapshot()
}

// Count returns how many events were emitted at the given level (including
// those evicted from the ring).
func (l *Log) Count(level Level) uint64 {
	if l == nil || level < LevelDebug || level > LevelError {
		return 0
	}
	return l.counts[level].Load()
}

// Total returns how many events were emitted across all levels.
func (l *Log) Total() uint64 {
	if l == nil {
		return 0
	}
	var t uint64
	for i := range l.counts {
		t += l.counts[i].Load()
	}
	return t
}

// WriteErrors returns how many sink writes failed (dropped lines).
func (l *Log) WriteErrors() uint64 {
	if l == nil {
		return 0
	}
	return l.writeErrs.Load()
}
