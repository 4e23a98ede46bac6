package events

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// decodeTrace parses a Chrome trace document the way a viewer would.
func decodeTrace(t *testing.T, data []byte) chromeTrace {
	t.Helper()
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, data)
	}
	return tr
}

func TestTimelineChromeTrace(t *testing.T) {
	tl := NewTimeline(0)
	tl.SetThreadName(0, "master")
	tl.SetThreadName(1, "worker 0")
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	tl.Add(Span{Name: "step 0", Cat: "step", TID: 0, Start: base, Dur: 100 * time.Millisecond})
	tl.Add(Span{Name: "compute", Cat: "compute", TID: 1, Start: base.Add(10 * time.Millisecond),
		Dur: 40 * time.Millisecond, Args: map[string]any{"step": 0}})

	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tr := decodeTrace(t, buf.Bytes())
	if tr.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", tr.DisplayTimeUnit)
	}
	var metas, spans int
	var compute *chromeEvent
	for i := range tr.TraceEvents {
		e := &tr.TraceEvents[i]
		switch e.Ph {
		case "M":
			metas++
		case "X":
			spans++
			if e.Name == "compute" {
				compute = e
			}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	if metas != 3 { // process_name + 2 thread_names
		t.Fatalf("metadata events = %d, want 3", metas)
	}
	if spans != 2 {
		t.Fatalf("span events = %d, want 2", spans)
	}
	if compute == nil || compute.Dur == nil {
		t.Fatal("compute span missing or without dur")
	}
	// Timestamps are micros relative to the earliest span.
	if compute.TS != 10_000 || *compute.Dur != 40_000 {
		t.Fatalf("compute ts=%v dur=%v, want 10000/40000 µs", compute.TS, *compute.Dur)
	}
	if compute.TID != 1 {
		t.Fatalf("compute tid=%d, want 1", compute.TID)
	}
}

func TestTimelineCapCountsDropped(t *testing.T) {
	tl := NewTimeline(2)
	for i := 0; i < 5; i++ {
		tl.Add(Span{Name: "s", Start: time.Now()})
	}
	if len(tl.Spans()) != 2 || tl.Dropped() != 3 {
		t.Fatalf("spans=%d dropped=%d, want 2/3", len(tl.Spans()), tl.Dropped())
	}

	// The rendered trace says how many spans it lacks, and says nothing
	// while the cap was not hit.
	render := func(tl *Timeline) chromeTrace {
		t.Helper()
		var buf bytes.Buffer
		if err := tl.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return decodeTrace(t, buf.Bytes())
	}
	over := NewTimeline(2)
	for i := 0; i < 3; i++ {
		over.Add(Span{Name: "s", Start: time.Now()})
	}
	if got := render(over).OtherData; got["dropped_spans"] != 1 {
		t.Fatalf("cap-2 timeline with 3 adds: otherData = %v, want dropped_spans 1", got)
	}
	under := NewTimeline(2)
	under.Add(Span{Name: "s", Start: time.Now()})
	if got := render(under).OtherData; got != nil {
		t.Fatalf("timeline under its cap rendered otherData %v", got)
	}
}

func TestNilTimelineIsSafe(t *testing.T) {
	var tl *Timeline
	tl.Add(Span{Name: "x"})
	tl.SetThreadName(0, "m")
	if tl.Spans() != nil || tl.Dropped() != 0 {
		t.Fatal("nil timeline must report zeros")
	}
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tr := decodeTrace(t, buf.Bytes())
	if len(tr.TraceEvents) != 0 {
		t.Fatalf("nil timeline rendered %d events", len(tr.TraceEvents))
	}
}

func TestTimelineWriteFile(t *testing.T) {
	tl := NewTimeline(0)
	tl.Add(Span{Name: "step 0", Cat: "step", Start: time.Now(), Dur: time.Millisecond})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tl.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := decodeTrace(t, data)
	found := false
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" && e.Name == "step 0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("written trace misses the span: %s", data)
	}
}

// Concurrent adds while exporting: run with -race. The repeated exports run
// on a small cap, so each one is cheap; one more export, with the adders
// still running, takes a default-cap timeline that they have filled.
func TestTimelineConcurrentAddExport(t *testing.T) {
	for _, c := range []struct{ max, exports int }{{256, 50}, {0, 1}} {
		tl := NewTimeline(c.max)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						tl.Add(Span{Name: "s", Start: time.Now(), Dur: time.Microsecond})
					}
				}
			}()
		}
		if c.max == 0 {
			for tl.Dropped() == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		for i := 0; i < c.exports; i++ {
			var buf bytes.Buffer
			if err := tl.WriteChromeTrace(&buf); err != nil {
				t.Fatal(err)
			}
			tr := decodeTrace(t, buf.Bytes())
			if c.max == 0 && len(tr.TraceEvents) < defaultTimelineSpans {
				t.Fatalf("full default-cap timeline exported %d events, want at least %d", len(tr.TraceEvents), defaultTimelineSpans)
			}
		}
		close(stop)
		wg.Wait()
	}
}
