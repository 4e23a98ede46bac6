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

// fleetMasks are the near-full 50,000-worker masks the fleet tests decode.
// On "bound-met" (the first 16 workers away) the first CR walk reaches the
// structural α bound and the decode stops there; on "every-97th" (that
// hole plus every 97th worker) no CR walk does, so all c walks run.
var fleetMasks = []struct {
	name  string
	build func(n int) *bitset.Set
}{
	{"every-97th", func(n int) *bitset.Set {
		avail := bitset.New(n)
		avail.AddRange(16, n)
		for w := 16; w < n; w += 97 {
			avail.Remove(w)
		}
		return avail
	}},
	{"bound-met", func(n int) *bitset.Set {
		avail := bitset.New(n)
		avail.AddRange(16, n)
		return avail
	}},
}

// fleetRecoverInputs returns an IS-GC strategy over p and coded vectors of
// the given dimension sliced from one backing array.
func fleetRecoverInputs(tb testing.TB, p *placement.Placement, dim int) (Strategy, [][]float64) {
	tb.Helper()
	st, err := NewISGC(isgc.New(p, 7))
	if err != nil {
		tb.Fatal(err)
	}
	n := p.N()
	flat := make([]float64, n*dim)
	coded := make([][]float64, n)
	for i := range coded {
		coded[i] = flat[i*dim : (i+1)*dim]
		coded[i][0] = float64(i%7) - 3
	}
	return st, coded
}

// TestRecoverAllocsAtFleetScale pins the recovery path's allocation shape
// at n = 50,000: a handful of n-bit sets — not one row, bitset or closure
// per chosen worker, and not ĝ or the partition list, which the strategy
// rewrites in place from one Recover to the next. CR and HR are pinned
// exactly, because a fresh decode allocates one set per greedy walk and
// stops walking at the structural α bound: on "bound-met" one walk, on
// "every-97th" every CR start (the HR anchor group meets the bound).
func TestRecoverAllocsAtFleetScale(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; counts are not meaningful")
	}
	const maxAllocs, maxBytes = 40, 256 << 10
	pinned := map[string]float64{
		"CR/every-97th": 20, "CR/bound-met": 6,
		"HR/every-97th": 6, "HR/bound-met": 6,
	}
	for _, fp := range fleetPlacements {
		p, err := fp.build()
		if err != nil {
			t.Fatal(err)
		}
		for _, fm := range fleetMasks {
			name := fp.name + "/" + fm.name
			st, coded := fleetRecoverInputs(t, p, 4)
			avail := fm.build(p.N())
			recoverOnce := func() {
				if _, _, err := st.Recover(avail, coded); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(5, recoverOnce)
			if want, ok := pinned[name]; ok && allocs != want {
				t.Errorf("%s: Recover made %.1f allocations, pinned at %.0f", name, allocs, want)
			} else if allocs > maxAllocs {
				t.Errorf("%s: Recover made %.0f allocations, want ≤ %d", name, allocs, maxAllocs)
			}
			const runs = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				recoverOnce()
			}
			runtime.ReadMemStats(&after)
			perCall := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%s: %.0f allocations, %d bytes per Recover", name, allocs, perCall)
			if perCall >= maxBytes {
				t.Errorf("%s: Recover allocated %d bytes per call, want < %d", name, perCall, maxBytes)
			}
		}
	}
}

// BenchmarkRecoverFleet is one master-side Recover (decode, aggregate,
// partition list) on each near-full 50,000-worker mask with the
// fleet-churn workload's 64-dimensional coded vectors.
func BenchmarkRecoverFleet(b *testing.B) {
	for _, fp := range fleetPlacements {
		for _, fm := range fleetMasks {
			b.Run(fp.name+"/"+fm.name, func(b *testing.B) {
				p, err := fp.build()
				if err != nil {
					b.Fatal(err)
				}
				st, coded := fleetRecoverInputs(b, p, 64)
				avail := fm.build(p.N())
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
}
