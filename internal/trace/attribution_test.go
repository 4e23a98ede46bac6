package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAttributionReport(t *testing.T) {
	a := NewAttribution(2)
	// Worker 0: compute-bound (compute ≈ arrival); worker 1: delivery-bound.
	for step := 0; step < 10; step++ {
		a.ObserveAccepted(ArrivalSample{Worker: 0, Step: step,
			Compute: 90 * time.Millisecond, Arrival: 100 * time.Millisecond})
		a.ObserveAccepted(ArrivalSample{Worker: 1, Step: step,
			Compute: 10 * time.Millisecond, Arrival: 200 * time.Millisecond})
	}
	a.ObserveIgnored(ArrivalSample{Worker: 1})
	a.ObserveIgnored(ArrivalSample{Worker: 1})

	rep := a.Report()
	if len(rep.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(rep.Workers))
	}
	w0, w1 := rep.Workers[0], rep.Workers[1]
	if w0.Chosen != 10 || w0.Ignored != 0 || w1.Chosen != 10 || w1.Ignored != 2 {
		t.Fatalf("counts: %+v / %+v", w0, w1)
	}
	if w0.ComputeP50 != 90*time.Millisecond || w0.ArrivalP50 != 100*time.Millisecond {
		t.Fatalf("w0 percentiles: %+v", w0)
	}
	if w0.OverheadP50 != 10*time.Millisecond {
		t.Fatalf("w0 overhead = %v, want 10ms", w0.OverheadP50)
	}
	if w0.ComputeShare < 0.89 || w0.ComputeShare > 0.91 {
		t.Fatalf("w0 compute share = %v, want 0.9", w0.ComputeShare)
	}
	if w1.ComputeShare > 0.06 {
		t.Fatalf("w1 compute share = %v, want 0.05", w1.ComputeShare)
	}
}

func TestAttributionWithoutComputeTiming(t *testing.T) {
	a := NewAttribution(1)
	a.ObserveAccepted(ArrivalSample{Worker: 0, Arrival: 50 * time.Millisecond})
	w := a.Report().Workers[0]
	if w.ArrivalP50 != 50*time.Millisecond {
		t.Fatalf("arrival p50 = %v", w.ArrivalP50)
	}
	if w.ComputeP50 != 0 || w.ComputeShare != 0 {
		t.Fatalf("unreported compute must stay zero: %+v", w)
	}
}

func TestAttributionIgnoredWorkerKeepsLatencyProfile(t *testing.T) {
	// A worker the gather never chooses must still show its arrival
	// profile — that profile is the diagnosis.
	a := NewAttribution(1)
	for step := 0; step < 8; step++ {
		a.ObserveIgnored(ArrivalSample{Worker: 0, Step: step,
			Compute: 20 * time.Millisecond, Arrival: 500 * time.Millisecond})
	}
	// An unmeasurable (earlier-step) arrival must not drag the percentiles to 0.
	a.ObserveIgnored(ArrivalSample{Worker: 0, Step: 8, Compute: 20 * time.Millisecond})
	w := a.Report().Workers[0]
	if w.Chosen != 0 || w.Ignored != 9 {
		t.Fatalf("counts: %+v", w)
	}
	if w.ArrivalP50 != 500*time.Millisecond {
		t.Fatalf("arrival p50 = %v, want 500ms from ignored samples", w.ArrivalP50)
	}
	if w.ComputeShare > 0.05 {
		t.Fatalf("compute share = %v, want delivery-bound (~0.04)", w.ComputeShare)
	}
}

func TestAttributionNilAndOutOfRange(t *testing.T) {
	var a *Attribution
	a.ObserveAccepted(ArrivalSample{Worker: 0})
	a.ObserveIgnored(ArrivalSample{Worker: 0})
	if len(a.Report().Workers) != 0 {
		t.Fatal("nil attribution must report empty")
	}
	b := NewAttribution(1)
	b.ObserveAccepted(ArrivalSample{Worker: 7})
	b.ObserveIgnored(ArrivalSample{Worker: -1})
	if w := b.Report().Workers[0]; w.Chosen != 0 || w.Ignored != 0 {
		t.Fatalf("out-of-range observations must be dropped: %+v", w)
	}
}

func TestAttributionSampleCap(t *testing.T) {
	a := NewAttribution(1)
	for i := 0; i < maxAttrSamples+100; i++ {
		a.ObserveAccepted(ArrivalSample{Worker: 0, Step: i, Arrival: time.Millisecond})
	}
	w := a.Report().Workers[0]
	if w.Chosen != maxAttrSamples+100 {
		t.Fatalf("chosen = %d, counters must keep counting past the cap", w.Chosen)
	}
	if len(a.samples[0]) != maxAttrSamples {
		t.Fatalf("samples = %d, want capped at %d", len(a.samples[0]), maxAttrSamples)
	}
}

func TestAttributionTable(t *testing.T) {
	a := NewAttribution(2)
	a.ObserveAccepted(ArrivalSample{Worker: 0, Compute: 2 * time.Millisecond, Arrival: 3 * time.Millisecond})
	out := a.Report().Table().String()
	for _, want := range []string{"straggler attribution", "worker", "compute p50", "arrival p95", "compute share"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table misses %q:\n%s", want, out)
		}
	}
	// Worker 1 never delivered: its timing columns render as "-".
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, "-") {
		t.Fatalf("empty worker row should use placeholders: %q", last)
	}
}

func TestAttributionConcurrent(t *testing.T) {
	a := NewAttribution(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a.ObserveAccepted(ArrivalSample{Worker: g, Step: i, Arrival: time.Millisecond})
				a.ObserveIgnored(ArrivalSample{Worker: g, Step: i})
				_ = a.Report()
			}
		}()
	}
	wg.Wait()
	for _, w := range a.Report().Workers {
		if w.Chosen != 200 || w.Ignored != 200 {
			t.Fatalf("lost observations under concurrency: %+v", w)
		}
	}
}
