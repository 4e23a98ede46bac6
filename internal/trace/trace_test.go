package trace

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestRunAccumulation(t *testing.T) {
	var r Run
	if r.Steps() != 0 || r.TotalTime() != 0 || r.MeanStepTime() != 0 || r.MeanRecovered() != 0 {
		t.Fatal("empty run must have zero aggregates")
	}
	if !math.IsNaN(r.FinalLoss()) {
		t.Fatal("empty run FinalLoss must be NaN")
	}
	r.Append(StepRecord{Step: 0, Loss: 2.0, RecoveredFraction: 0.5, Elapsed: time.Second})
	r.Append(StepRecord{Step: 1, Loss: 1.0, RecoveredFraction: 1.0, Elapsed: 3 * time.Second})
	if r.Steps() != 2 {
		t.Fatal("Steps wrong")
	}
	if r.TotalTime() != 4*time.Second {
		t.Fatalf("TotalTime = %v", r.TotalTime())
	}
	if r.MeanStepTime() != 2*time.Second {
		t.Fatalf("MeanStepTime = %v", r.MeanStepTime())
	}
	if r.MeanRecovered() != 0.75 {
		t.Fatalf("MeanRecovered = %v", r.MeanRecovered())
	}
	if r.FinalLoss() != 1.0 {
		t.Fatalf("FinalLoss = %v", r.FinalLoss())
	}
	losses := r.Losses()
	if len(losses) != 2 || losses[0] != 2.0 || losses[1] != 1.0 {
		t.Fatalf("Losses = %v", losses)
	}
}

func TestPartitionInclusion(t *testing.T) {
	var r Run
	empty := r.PartitionInclusion(4)
	for _, v := range empty {
		if v != 0 {
			t.Fatal("empty run must yield zero inclusion")
		}
	}
	r.Append(StepRecord{Partitions: []int{0, 1}})
	r.Append(StepRecord{Partitions: []int{1, 2, 3}})
	r.Append(StepRecord{Partitions: nil})              // producer without tracking
	r.Append(StepRecord{Partitions: []int{1, 99, -1}}) // out-of-range ignored
	got := r.PartitionInclusion(4)
	want := []float64{0.25, 0.75, 0.25, 0.25}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("inclusion = %v, want %v", got, want)
		}
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) must be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {-5, 15}, {150, 50},
	}
	for _, tc := range cases {
		if got := Percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Interpolation between order statistics.
	if got := Percentile([]float64{10, 20}, 50); got != 15 {
		t.Errorf("interp = %v, want 15", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of empty must be NaN")
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 {
		t.Error("Percentile must not sort the input in place")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Fig X", "scheme", "w", "value", "time")
	tab.AddRow("IS-GC-FR", 2, 0.996, 1500*time.Millisecond)
	tab.AddRow("IS-SGD", 2, 0.5, 900*time.Millisecond)
	if tab.NumRows() != 2 {
		t.Fatal("NumRows")
	}
	s := tab.String()
	if !strings.Contains(s, "== Fig X ==") {
		t.Errorf("missing caption:\n%s", s)
	}
	if !strings.Contains(s, "IS-GC-FR") || !strings.Contains(s, "0.996") || !strings.Contains(s, "1.5s") {
		t.Errorf("missing cells:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // caption + header + separator + 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), s)
	}
	// Integral floats print without decimals.
	tab2 := NewTable("", "x")
	tab2.AddRow(3.0)
	if !strings.Contains(tab2.String(), "3") || strings.Contains(tab2.String(), "3.0") {
		t.Errorf("integral float formatting wrong:\n%s", tab2.String())
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("cap", "a", "b")
	tab.AddRow(1, 2.5)
	csv := tab.CSV()
	want := "a,b\n1,2.5\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestLatencySummary(t *testing.T) {
	var r Run
	if s := r.LatencySummary(); s.P50 != 0 || s.P95 != 0 || s.P99 != 0 {
		t.Errorf("empty run summary = %+v, want zeros", s)
	}
	for i := 1; i <= 100; i++ {
		r.Append(StepRecord{Elapsed: time.Duration(i) * time.Millisecond})
	}
	s := r.LatencySummary()
	if s.P50 != 50500*time.Microsecond {
		t.Errorf("p50 = %v, want 50.5ms", s.P50)
	}
	if s.P95 != 95050*time.Microsecond {
		t.Errorf("p95 = %v, want 95.05ms", s.P95)
	}
	if s.P99 != 99010*time.Microsecond {
		t.Errorf("p99 = %v, want 99.01ms", s.P99)
	}
	str := s.String()
	for _, want := range []string{"p50=", "p95=", "p99="} {
		if !strings.Contains(str, want) {
			t.Errorf("summary string %q missing %q", str, want)
		}
	}
}

// TestEmptyInputGuards pins the documented behaviour of the summary
// statistics on empty input: Percentile is NaN, Mean is 0, and neither
// panics.
func TestEmptyInputGuards(t *testing.T) {
	if v := Percentile(nil, 50); !math.IsNaN(v) {
		t.Errorf("Percentile(nil) = %v, want NaN", v)
	}
	if v := Percentile([]float64{}, 99); !math.IsNaN(v) {
		t.Errorf("Percentile(empty) = %v, want NaN", v)
	}
	if v := Mean(nil); v != 0 {
		t.Errorf("Mean(nil) = %v, want 0", v)
	}
	// Out-of-range percentiles clamp rather than index out of bounds.
	xs := []float64{1, 2, 3}
	if v := Percentile(xs, -5); v != 1 {
		t.Errorf("Percentile(p=-5) = %v, want 1", v)
	}
	if v := Percentile(xs, 150); v != 3 {
		t.Errorf("Percentile(p=150) = %v, want 3", v)
	}
}
