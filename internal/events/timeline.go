package events

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// defaultTimelineSpans bounds span memory when the caller does not choose:
// a 200-step run with a dozen workers produces a few thousand spans, so
// 64k covers paper-scale runs with a wide margin while capping a runaway
// producer at a few MiB.
const defaultTimelineSpans = 1 << 16

// Span is one timed interval on a track: a master phase (broadcast,
// gather, decode, update), a whole step, or a worker's compute/upload.
type Span struct {
	// Name is the span label shown in the trace viewer.
	Name string
	// Cat is the Chrome trace category (used for filtering in the UI).
	Cat string
	// TID selects the track: 0 is the master, worker i renders on i+1.
	TID int
	// Start and Dur delimit the interval in wall time.
	Start time.Time
	Dur   time.Duration
	// Args carries span metadata shown on click in the viewer.
	Args map[string]any
}

// Timeline collects spans for export as a Chrome trace-event file
// (the JSON format ui.perfetto.dev and chrome://tracing load natively).
// It is race-safe, bounded, and nil-receiver-safe: a nil *Timeline
// discards spans with a single branch.
type Timeline struct {
	mu      sync.Mutex
	max     int
	spans   []Span
	dropped uint64
	threads map[int]string
}

// NewTimeline returns a timeline holding at most max spans (<= 0 selects
// the default). Once full, further spans are counted as dropped rather
// than evicting history — the start of a run matters more than a runaway
// tail.
func NewTimeline(max int) *Timeline {
	if max <= 0 {
		max = defaultTimelineSpans
	}
	return &Timeline{max: max, threads: make(map[int]string)}
}

// SetThreadName labels a track (e.g. 0 → "master", 3 → "worker 2").
func (t *Timeline) SetThreadName(tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.threads[tid] = name
}

// Add records one span. Safe for concurrent use and on a nil receiver.
func (t *Timeline) Add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.max {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// Spans returns a copy of the recorded spans in insertion order.
func (t *Timeline) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dropped returns how many spans were discarded because the cap was hit.
func (t *Timeline) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// chromeEvent is one entry of the Chrome trace-event JSON format. Only
// the fields this exporter uses are modeled: "X" complete events (with
// microsecond ts/dur) and "M" metadata events (thread names).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace file object. OtherData is the
// format's free-form metadata; it holds dropped_spans when the cap was hit.
type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]uint64 `json:"otherData,omitempty"`
}

// WriteChromeTrace renders the timeline as a Chrome trace-event JSON
// document. Timestamps are microseconds relative to the earliest span so
// the viewer opens at t≈0. A timeline that hit its cap says how many spans
// it dropped in otherData.dropped_spans: the trace then covers only the
// start of the run.
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`)
		return err
	}
	t.mu.Lock()
	spans := append([]Span(nil), t.spans...)
	threads := make(map[int]string, len(t.threads))
	for k, v := range t.threads {
		threads[k] = v
	}
	dropped := t.dropped
	t.mu.Unlock()

	var epoch time.Time
	for _, s := range spans {
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}

	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(spans)+len(threads)+1)}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "isgc"},
	})
	tids := make([]int, 0, len(threads))
	for tid := range threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": threads[tid]},
		})
	}
	for _, s := range spans {
		dur := float64(s.Dur) / float64(time.Microsecond)
		if dur < 0 {
			dur = 0
		}
		d := dur
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			TS:  float64(s.Start.Sub(epoch)) / float64(time.Microsecond),
			Dur: &d,
			PID: 1, TID: s.TID, Args: s.Args,
		})
	}
	if dropped > 0 {
		out.OtherData = map[string]uint64{"dropped_spans": dropped}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteFile writes the Chrome trace to path, creating or truncating it.
func (t *Timeline) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("events: timeline: %w", err)
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("events: timeline: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("events: timeline: %w", err)
	}
	return nil
}
