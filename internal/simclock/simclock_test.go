package simclock

import (
	"math"
	"slices"
	"testing"
	"time"

	"isgc/internal/straggler"
)

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{N: 0, ComputePerPartition: time.Second, PartitionsPerWorker: 1},
		{N: 4, ComputePerPartition: time.Second, PartitionsPerWorker: 0},
		{N: 4, ComputePerPartition: -time.Second, PartitionsPerWorker: 1},
		{N: 4, ComputePerPartition: time.Second, PartitionsPerWorker: 1, Upload: -1},
		{N: 4, ComputePerPartition: time.Second, PartitionsPerWorker: 1,
			Profile: straggler.NewProfile(2, straggler.None{}, 1)},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestStepBaseTime(t *testing.T) {
	s, err := New(Config{
		N:                   3,
		ComputePerPartition: 100 * time.Millisecond,
		PartitionsPerWorker: 2,
		Upload:              50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Step() {
		if d != 250*time.Millisecond {
			t.Fatalf("finish time %v, want 250ms (2·100 + 50)", d)
		}
	}
}

func TestStepAddsStragglerDelay(t *testing.T) {
	prof := straggler.PartialProfile(4, 2, straggler.Constant{D: time.Second}, 1)
	s, err := New(Config{
		N:                   4,
		ComputePerPartition: 100 * time.Millisecond,
		PartitionsPerWorker: 1,
		Profile:             prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	times := s.Step()
	if times[0] != 1100*time.Millisecond || times[1] != 1100*time.Millisecond {
		t.Fatalf("slow workers: %v", times[:2])
	}
	if times[2] != 100*time.Millisecond || times[3] != 100*time.Millisecond {
		t.Fatalf("fast workers: %v", times[2:])
	}
}

func TestComputeFactorsHeterogeneousFleet(t *testing.T) {
	s, err := New(Config{
		N:                   3,
		ComputePerPartition: 100 * time.Millisecond,
		PartitionsPerWorker: 2,
		Upload:              50 * time.Millisecond,
		ComputeFactors:      []float64{1, 2, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	times := s.Step()
	want := []time.Duration{250 * time.Millisecond, 450 * time.Millisecond, 150 * time.Millisecond}
	for i, w := range want {
		if times[i] != w {
			t.Fatalf("worker %d: %v, want %v", i, times[i], w)
		}
	}
}

func TestComputeFactorsValidation(t *testing.T) {
	base := Config{N: 2, ComputePerPartition: time.Second, PartitionsPerWorker: 1}
	bad := base
	bad.ComputeFactors = []float64{1} // wrong length
	if _, err := New(bad); err == nil {
		t.Error("wrong-length factors must error")
	}
	bad2 := base
	bad2.ComputeFactors = []float64{1, 0}
	if _, err := New(bad2); err == nil {
		t.Error("non-positive factor must error")
	}
	bad3 := base
	bad3.ComputeFactors = []float64{1, -2}
	if _, err := New(bad3); err == nil {
		t.Error("negative factor must error")
	}
}

func TestFastestW(t *testing.T) {
	times := []time.Duration{40, 10, 30, 20}
	avail, elapsed, err := FastestW(times, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !avail.Contains(1) || !avail.Contains(3) || avail.Len() != 2 {
		t.Fatalf("avail = %v, want {1, 3}", avail)
	}
	if elapsed != 20 {
		t.Fatalf("elapsed = %v, want 20", elapsed)
	}

	all, elapsedAll, err := FastestW(times, 4)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 4 || elapsedAll != 40 {
		t.Fatalf("w=n: avail %v elapsed %v", all, elapsedAll)
	}
}

func TestFastestWTieBreaking(t *testing.T) {
	times := []time.Duration{10, 10, 10, 10}
	avail, elapsed, err := FastestW(times, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !avail.Contains(0) || !avail.Contains(1) {
		t.Fatalf("ties must break by index: %v", avail)
	}
	if elapsed != 10 {
		t.Fatalf("elapsed = %v", elapsed)
	}
}

func TestFastestWErrors(t *testing.T) {
	times := []time.Duration{1, 2}
	if _, _, err := FastestW(times, 0); err == nil {
		t.Error("expected error for w=0")
	}
	if _, _, err := FastestW(times, 3); err == nil {
		t.Error("expected error for w>n")
	}
}

func TestDeadline(t *testing.T) {
	times := []time.Duration{5, 50, 15, 100}
	avail, elapsed := Deadline(times, 20)
	if !avail.Contains(0) || !avail.Contains(2) || avail.Len() != 2 {
		t.Fatalf("avail = %v", avail)
	}
	if elapsed != 20 {
		t.Fatalf("elapsed = %v, want the deadline", elapsed)
	}
	// Everyone beats the deadline: elapsed is the last arrival.
	avail2, elapsed2 := Deadline(times, 200)
	if avail2.Len() != 4 || elapsed2 != 100 {
		t.Fatalf("avail %v elapsed %v", avail2, elapsed2)
	}
	// Nobody makes it.
	avail3, elapsed3 := Deadline(times, 1)
	if !avail3.Empty() || elapsed3 != 1 {
		t.Fatalf("avail %v elapsed %v", avail3, elapsed3)
	}
}

// Statistical sanity: with exponential stragglers on half the fleet, the
// expected FastestW(w=n/2) step time must be far below wait-all's — the core
// effect behind Fig. 11.
func TestFastestWBeatsWaitAllUnderStragglers(t *testing.T) {
	prof := straggler.PartialProfile(24, 12, straggler.Exponential{Mean: 1500 * time.Millisecond}, 3)
	s, err := New(Config{
		N:                   24,
		ComputePerPartition: 50 * time.Millisecond,
		PartitionsPerWorker: 2,
		Upload:              10 * time.Millisecond,
		Profile:             prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 2000
	var sumFast, sumAll float64
	for i := 0; i < steps; i++ {
		times := s.Step()
		_, ef, err := FastestW(times, 12)
		if err != nil {
			t.Fatal(err)
		}
		ea := slices.Max(times)
		sumFast += float64(ef)
		sumAll += float64(ea)
	}
	if !(sumFast < 0.5*sumAll) {
		t.Fatalf("fastest-12 mean %v not ≪ wait-all mean %v",
			time.Duration(sumFast/steps), time.Duration(sumAll/steps))
	}
	// The 12 non-straggling workers finish in base time, so the fastest-12
	// gather should be very close to base (160ms).
	meanFast := time.Duration(sumFast / steps)
	if meanFast > 200*time.Millisecond {
		t.Fatalf("fastest-12 mean %v, want ≈160ms", meanFast)
	}
}

// Order statistics: E[max of n Exp(mean)] ≈ mean·H_n; check within 10%.
func TestExponentialMaxOrderStatistic(t *testing.T) {
	const n = 8
	prof := straggler.NewProfile(n, straggler.Exponential{Mean: time.Second}, 7)
	s, err := New(Config{N: n, ComputePerPartition: time.Nanosecond, PartitionsPerWorker: 1, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 60000
	var sum float64
	for i := 0; i < steps; i++ {
		sum += float64(slices.Max(s.Step()))
	}
	mean := sum / steps
	hn := 0.0
	for k := 1; k <= n; k++ {
		hn += 1 / float64(k)
	}
	want := hn * float64(time.Second)
	if math.Abs(mean-want)/want > 0.1 {
		t.Fatalf("E[max] = %v, want ≈ %v", time.Duration(mean), time.Duration(want))
	}
}
