package engine

import (
	"runtime"
	"testing"

	"isgc/internal/bitset"
	"isgc/internal/isgc"
	"isgc/internal/placement"
)

const fleetN = 50000

// fleetPlacements are the three families at fleet scale, all structural.
var fleetPlacements = []struct {
	name  string
	build func() (*placement.Placement, error)
}{
	{"FR", func() (*placement.Placement, error) { return placement.FR(fleetN, 8, placement.Structural()) }},
	{"CR", func() (*placement.Placement, error) { return placement.CR(fleetN, 8, placement.Structural()) }},
	{"HR", func() (*placement.Placement, error) { return placement.HR(fleetN, 4, 4, 5000, placement.Structural()) }},
}

// fleetRecoverInputs returns an IS-GC strategy over p, a near-full mask
// (the first 16 workers and every 97th are away) and coded vectors of the
// given dimension sliced from one backing array.
func fleetRecoverInputs(tb testing.TB, p *placement.Placement, dim int) (Strategy, *bitset.Set, [][]float64) {
	tb.Helper()
	st, err := NewISGC(isgc.New(p, 7))
	if err != nil {
		tb.Fatal(err)
	}
	n := p.N()
	avail := bitset.New(n)
	avail.AddRange(16, n)
	for w := 16; w < n; w += 97 {
		avail.Remove(w)
	}
	flat := make([]float64, n*dim)
	coded := make([][]float64, n)
	for i := range coded {
		coded[i] = flat[i*dim : (i+1)*dim]
		coded[i][0] = float64(i%7) - 3
	}
	return st, avail, coded
}

// TestRecoverAllocsAtFleetScale pins the recovery path's allocation shape
// at n = 50,000: a handful of n-bit sets, ĝ and the partition list — not
// one row, bitset or closure per chosen worker.
func TestRecoverAllocsAtFleetScale(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; counts are not meaningful")
	}
	const maxAllocs, maxBytes = 40, 1 << 20
	for _, fp := range fleetPlacements {
		p, err := fp.build()
		if err != nil {
			t.Fatal(err)
		}
		st, avail, coded := fleetRecoverInputs(t, p, 4)
		recoverOnce := func() {
			if _, _, err := st.Recover(avail, coded); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(5, recoverOnce); allocs > maxAllocs {
			t.Errorf("%s: Recover made %.0f allocations, want ≤ %d", fp.name, allocs, maxAllocs)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			recoverOnce()
		}
		runtime.ReadMemStats(&after)
		if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall >= maxBytes {
			t.Errorf("%s: Recover allocated %d bytes per call, want < %d", fp.name, perCall, maxBytes)
		}
	}
}

// BenchmarkRecoverFleet is one master-side Recover (decode, aggregate,
// partition list) on a near-full 50,000-worker mask with the fleet-churn
// workload's 64-dimensional coded vectors.
func BenchmarkRecoverFleet(b *testing.B) {
	for _, fp := range fleetPlacements {
		b.Run(fp.name, func(b *testing.B) {
			p, err := fp.build()
			if err != nil {
				b.Fatal(err)
			}
			st, avail, coded := fleetRecoverInputs(b, p, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := st.Recover(avail, coded); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
