package isgc

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"isgc/internal/bitset"
	"isgc/internal/linalg/kerneltest"
	"isgc/internal/placement"
)

// referenceAggregate is Aggregate's sum as it was before rows were fused:
// one row at a time, in ascending worker order.
func referenceAggregate(chosen *bitset.Set, coded [][]float64) []float64 {
	var ghat []float64
	chosen.Range(func(i int) bool {
		if ghat == nil {
			ghat = make([]float64, len(coded[i]))
		}
		for k, x := range coded[i] {
			ghat[k] += x
		}
		return true
	})
	return ghat
}

// TestAggregateFusedMatchesSequential: ĝ from the four-rows-per-pass sum
// has the bits of the row-at-a-time sum for every α in 0..13 — no pass, one,
// two and three passes with and without a look-ahead hand-off, and every
// tail of 1–3 rows — at dimensions around the lane group and the line of
// eight, under every kernel path, on values where the order of additions
// decides the result (1e16 absorbs a lone 1; −1e16 then cancels it).
func TestAggregateFusedMatchesSequential(t *testing.T) {
	const n = 14
	p, err := placement.CR(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, 1)
	pool := []float64{1e16, 1, -1e16, 1, 3, -1, 1e-3, -1e16, 1e16, 0.1}
	kerneltest.EachPath(t, func(path string) {
		orderMatters := false
		for _, dim := range []int{1, 3, 4, 5, 7, 64, 67} {
			coded := make([][]float64, n)
			for i := range coded {
				coded[i] = make([]float64, dim)
				for k := range coded[i] {
					coded[i][k] = pool[(i*3+k*7+i*k)%len(pool)]
				}
			}
			for alpha := 0; alpha < n; alpha++ {
				// Three spreads of α workers: the first α, α taken from the
				// top, and every other worker up to α of them.
				spread := bitset.New(n)
				for i := 0; i < n && spread.Len() < alpha; i += 2 {
					spread.Add(i)
				}
				for i := 1; spread.Len() < alpha; i += 2 {
					spread.Add(i)
				}
				first, top := bitset.New(n), bitset.New(n)
				first.AddRange(0, alpha)
				top.AddRange(n-alpha, n)
				for _, chosen := range []*bitset.Set{first, top, spread} {
					ghat, parts, err := s.Aggregate(chosen, coded)
					if err != nil {
						t.Fatalf("%s dim=%d α=%d %v: %v", path, dim, alpha, chosen, err)
					}
					if parts.Len() != alpha {
						t.Fatalf("%s dim=%d α=%d %v: %d partitions", path, dim, alpha, chosen, parts.Len())
					}
					want := referenceAggregate(chosen, coded)
					if len(ghat) != len(want) {
						t.Fatalf("%s dim=%d α=%d %v: len(ĝ) = %d, want %d", path, dim, alpha, chosen, len(ghat), len(want))
					}
					for k := range want {
						if math.Float64bits(ghat[k]) != math.Float64bits(want[k]) {
							t.Fatalf("%s dim=%d α=%d %v: ĝ[%d] = %v, sequential sum %v", path, dim, alpha, chosen, k, ghat[k], want[k])
						}
						// A pairwise (tree) sum of the same rows differs
						// somewhere, or the values would not be testing the
						// association.
						if alpha == 4 {
							r := chosen.Slice()
							if tree := (coded[r[0]][k] + coded[r[1]][k]) + (coded[r[2]][k] + coded[r[3]][k]); tree != want[k] {
								orderMatters = true
							}
						}
					}
				}
			}
		}
		if !orderMatters {
			t.Fatal("test values do not distinguish left-to-right from pairwise association")
		}
	})
}

// TestAggregateFusedRejectsBadRows: a missing or wrong-sized row is reported
// whichever of the four fused positions, or the tail, it falls in.
func TestAggregateFusedRejectsBadRows(t *testing.T) {
	const n, dim = 7, 3
	p, err := placement.CR(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, 1)
	chosen := bitset.New(n)
	chosen.AddRange(0, n) // rows 0–3 fill one pass, 4–6 are the tail
	for bad := 0; bad < n; bad++ {
		for _, tc := range []struct {
			row  []float64
			want string
		}{
			{nil, "has no coded gradient"},
			{make([]float64, dim+1), "dim"},
		} {
			coded := make([][]float64, n)
			for i := range coded {
				coded[i] = make([]float64, dim)
			}
			if bad == 0 && tc.row != nil {
				// Row 0 sets the dimension; make every other row disagree.
				for i := 1; i < n; i++ {
					coded[i] = make([]float64, dim+1)
				}
			} else {
				coded[bad] = tc.row
			}
			ghat, parts, err := s.Aggregate(chosen, coded)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("bad row %d (%d values): err = %v, want one mentioning %q", bad, len(tc.row), err, tc.want)
			}
			if ghat != nil || parts != nil {
				t.Fatalf("bad row %d: got ĝ or parts beside the error", bad)
			}
		}
	}
	if _, _, err := s.Aggregate(chosen, make([][]float64, n-1)); err == nil {
		t.Fatal("coded shorter than the chosen ids accepted")
	}

	// An id ≥ n with a row behind it: Recovered ignores the id, so summing the
	// row would put a gradient into ĝ that the partition list does not count.
	cr, err := placement.CR(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	coded := make([][]float64, 10)
	for i := range coded {
		coded[i] = []float64{float64(i)}
	}
	for _, ids := range [][]int{{0, 9}, {9}, {0, 1, 2, 3, 4, 5, 6, 7, 8}} {
		ghat, parts, err := New(cr, 1).Aggregate(bitset.FromSlice(ids), coded)
		want := "chosen worker " + strconv.Itoa(ids[len(ids)-1]) + " out of range [0,8)"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("chosen %v over 10 rows of CR(8,2): ĝ = %v, parts %v, err = %v; want an error mentioning %q", ids, ghat, parts, err, want)
		}
		if ghat != nil || parts != nil {
			t.Fatalf("chosen %v: got ĝ or parts beside the error", ids)
		}
	}
}

// TestAggregateIntoReusesDst: a dst of the coded dimension is summed into in
// place, whatever it held, with the bits of Aggregate's fresh ĝ; a dst of
// any other length is left alone and ĝ is allocated; an empty chosen set
// returns no ĝ and leaves dst alone.
func TestAggregateIntoReusesDst(t *testing.T) {
	const n, dim = 9, 13
	p, err := placement.CR(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, 1)
	coded := make([][]float64, n)
	for i := range coded {
		coded[i] = make([]float64, dim)
		for k := range coded[i] {
			coded[i][k] = math.Ldexp(float64(i*dim+k)-50, i-k)
		}
	}
	chosen := bitset.FromSlice([]int{0, 2, 3, 5, 6, 7, 8})
	want, wantParts, err := s.Aggregate(chosen, coded)
	if err != nil {
		t.Fatal(err)
	}
	dirty := func(m int) []float64 {
		v := make([]float64, m)
		for k := range v {
			v[k] = math.NaN()
		}
		return v
	}
	same := func(got []float64) bool {
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				return false
			}
		}
		return len(got) == len(want)
	}

	dst := dirty(dim)
	ghat, parts, err := s.AggregateInto(dst, chosen, coded)
	if err != nil {
		t.Fatal(err)
	}
	if &ghat[0] != &dst[0] || !same(ghat) || !parts.Equal(wantParts) {
		t.Fatalf("into a dst of dim %d: ĝ = %v (in place: %v), want %v", dim, ghat, &ghat[0] == &dst[0], want)
	}
	for _, m := range []int{0, dim - 1, dim + 1} {
		dst := dirty(m)
		ghat, _, err := s.AggregateInto(dst, chosen, coded)
		if err != nil {
			t.Fatal(err)
		}
		if !same(ghat) || (m > 0 && (&ghat[0] == &dst[0] || !math.IsNaN(dst[0]))) {
			t.Fatalf("into a dst of dim %d: ĝ = %v, dst = %v; want a fresh %v and dst untouched", m, ghat, dst, want)
		}
	}
	dst = dirty(dim)
	if ghat, _, err := s.AggregateInto(dst, bitset.New(n), coded); err != nil || ghat != nil || !math.IsNaN(dst[0]) {
		t.Fatalf("empty chosen set: ĝ = %v, err = %v, dst[0] = %v; want nil, nil, untouched", ghat, err, dst[0])
	}
}

// blockedReference is ĝ by its definition at any n, written out: the
// row-at-a-time sum of each block of 2048 worker ids from zero, then those
// partials added from zero in block order, empty blocks included.
func blockedReference(chosen *bitset.Set, coded [][]float64, n, dim int) []float64 {
	const block = 2048
	parts := make([][]float64, (n+block-1)/block)
	for b := range parts {
		parts[b] = make([]float64, dim)
	}
	chosen.Range(func(i int) bool {
		for k, x := range coded[i] {
			parts[i/block][k] += x
		}
		return true
	})
	ghat := make([]float64, dim)
	for _, part := range parts {
		for k, x := range part {
			ghat[k] += x
		}
	}
	return ghat
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// TestAggregateBlockedDeterministic: above 2048 workers ĝ is summed per
// block of 2048 ids, the blocks spread over the calling goroutine and the
// helpers. Its bits must not depend on how many there are: at GOMAXPROCS 1,
// 2 and 4, under every kernel path, ĝ equals the written-out blocked sum
// for FR, CR and HR at n from 5,000 to 50,000, on a decoded set, every id,
// and a sparse set that leaves whole blocks empty — summed fresh and into a
// kept dst. At n = 2048 (one block) it is the row-at-a-time sum. The values
// make the association visible (1e16 absorbs a lone 1), and the test checks
// that the blocked and the row-at-a-time sums differ somewhere, so a block
// boundary that moved would show.
func TestAggregateBlockedDeterministic(t *testing.T) {
	fr, err := placement.FR(5000, 4, placement.Structural())
	if err != nil {
		t.Fatal(err)
	}
	cr, err := placement.CR(50000, 8, placement.Structural())
	if err != nil {
		t.Fatal(err)
	}
	hr, err := placement.HR(20000, 2, 2, 4000, placement.Structural())
	if err != nil {
		t.Fatal(err)
	}
	one, err := placement.CR(2048, 2, placement.Structural())
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	pool := []float64{1e16, 1, -1e16, 1, 3, -1, 1e-3, -1e16, 1e16, 0.1}
	orderMatters := false
	for _, p := range []*placement.Placement{fr, cr, hr, one} {
		n := p.N()
		s := New(p, 3)
		avail := bitset.New(n)
		avail.AddRange(16, n)
		for w := 16; w < n; w += 97 {
			avail.Remove(w)
		}
		all, sparse := bitset.New(n), bitset.New(n)
		all.AddRange(0, n)
		for i := 0; i < n; i += 5 {
			if (i/2048)%3 == 0 {
				sparse.Add(i)
			}
		}
		sets := map[string]*bitset.Set{"decoded": s.Decode(avail), "all": all, "sparse": sparse}
		for _, dim := range []int{1, 4, 64, 67} {
			coded := make([][]float64, n)
			for i := range coded {
				coded[i] = make([]float64, dim)
				for k := range coded[i] {
					coded[i][k] = pool[(i*3+k*7+i*k)%len(pool)]
				}
			}
			for name, chosen := range sets {
				want := blockedReference(chosen, coded, n, dim)
				rows := referenceAggregate(chosen, coded)
				if n <= 2048 && !sameBits(want, rows) {
					t.Fatalf("%v dim=%d %s: one block's reference is not the row-at-a-time sum", p, dim, name)
				}
				orderMatters = orderMatters || !sameBits(want, rows)
				kerneltest.EachPath(t, func(path string) {
					for _, procs := range []int{1, 2, 4} {
						runtime.GOMAXPROCS(procs)
						ghat, parts, err := s.Aggregate(chosen, coded)
						if err != nil {
							t.Fatalf("%v dim=%d %s %s GOMAXPROCS=%d: %v", p, dim, name, path, procs, err)
						}
						if !sameBits(ghat, want) {
							t.Fatalf("%v dim=%d %s %s GOMAXPROCS=%d: ĝ differs from the blocked sum", p, dim, name, path, procs)
						}
						if !parts.Equal(s.Recovered(chosen)) {
							t.Fatalf("%v dim=%d %s %s GOMAXPROCS=%d: partitions %v", p, dim, name, path, procs, parts)
						}
						dst := make([]float64, dim)
						for k := range dst {
							dst[k] = math.NaN()
						}
						if ghat, _, err := s.AggregateInto(dst, chosen, coded); err != nil || &ghat[0] != &dst[0] || !sameBits(ghat, want) {
							t.Fatalf("%v dim=%d %s %s GOMAXPROCS=%d: into a kept dst: err = %v, in place %v, bits equal %v", p, dim, name, path, procs, err, err == nil && &ghat[0] == &dst[0], err == nil && sameBits(ghat, want))
						}
					}
				})
			}
		}
	}
	if !orderMatters {
		t.Fatal("test values do not distinguish the blocked sum from the row-at-a-time sum")
	}
}

// TestAggregateBlockedErrors: a bad row in any block — no row, a row of the
// wrong length, an id ≥ n — is reported as GOMAXPROCS 1 reports it (the
// lowest bad id, whichever goroutine summed its block), and a kept dst is
// left as it was. The scheme's scratch survives the failure: the next good
// sum has the blocked sum's bits.
func TestAggregateBlockedErrors(t *testing.T) {
	const n, dim = 9000, 5 // blocks 0–3 whole, block 4 holds 8192–8999
	p, err := placement.CR(n, 2, placement.Structural())
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	good := func() [][]float64 {
		coded := make([][]float64, n+6000)
		for i := range coded {
			coded[i] = make([]float64, dim)
			for k := range coded[i] {
				coded[i][k] = float64((i*k)%11) - 5
			}
		}
		return coded
	}
	all := bitset.New(n)
	all.AddRange(0, n)
	type tc struct {
		name   string
		chosen *bitset.Set
		coded  [][]float64
		want   string
	}
	var cases []tc
	for _, x := range []int{0, 100, 2047, 2048, 4500, 8191, 8192, 8999} {
		coded := good()
		coded[x] = nil
		cases = append(cases, tc{"nil row " + strconv.Itoa(x), all, coded, "chosen worker " + strconv.Itoa(x) + " has no coded gradient"})
	}
	for _, x := range []int{1, 2048, 4500, 8999} {
		coded := good()
		coded[x] = make([]float64, dim+1)
		cases = append(cases, tc{"long row " + strconv.Itoa(x), all, coded, "worker " + strconv.Itoa(x) + " coded gradient dim 6 ≠ 5"})
	}
	coded := good()
	coded[0] = make([]float64, dim+1)
	cases = append(cases, tc{"long first row", all, coded, "worker 1 coded gradient dim 5 ≠ 6"})
	for _, x := range []int{n, n + 5000} {
		chosen := all.Clone()
		chosen.Add(x)
		cases = append(cases, tc{"id " + strconv.Itoa(x), chosen, good(), "chosen worker " + strconv.Itoa(x) + " out of range [0,9000)"})
	}
	coded = good()
	coded[8999], coded[4500] = nil, make([]float64, dim-1)
	cases = append(cases, tc{"two bad blocks", all, coded, "worker 4500 coded gradient dim 4 ≠ 5"})
	coded = good()
	coded[6000] = nil
	chosen := all.Clone()
	chosen.Add(n)
	cases = append(cases, tc{"nil row before an id ≥ n", chosen, coded, "chosen worker 6000 has no coded gradient"})

	for _, c := range cases {
		var first string
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			dst := make([]float64, dim)
			for k := range dst {
				dst[k] = math.NaN()
			}
			ghat, parts, err := s.AggregateInto(dst, c.chosen, c.coded)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%s GOMAXPROCS=%d: err = %v, want one mentioning %q", c.name, procs, err, c.want)
			}
			if procs == 1 {
				first = err.Error()
			} else if err.Error() != first {
				t.Fatalf("%s GOMAXPROCS=%d: err = %q, GOMAXPROCS=1 said %q", c.name, procs, err, first)
			}
			if ghat != nil || parts != nil {
				t.Fatalf("%s GOMAXPROCS=%d: got ĝ or parts beside the error", c.name, procs)
			}
			for k, x := range dst {
				if !math.IsNaN(x) {
					t.Fatalf("%s GOMAXPROCS=%d: dst[%d] = %v, want it untouched", c.name, procs, k, x)
				}
			}
		}
	}
	coded = good()
	want := blockedReference(all, coded, n, dim)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if ghat, _, err := s.Aggregate(all, coded); err != nil || !sameBits(ghat, want) {
			t.Fatalf("GOMAXPROCS=%d after the errors: ĝ = %v, err = %v, want %v", procs, ghat, err, want)
		}
	}
}

// BenchmarkAggregateFleet is the master's recovery pass after decode at the
// fleet-churn workload's shape — Aggregate, then the partition list — for
// the chosen set of a CR(50000, 8) decode on the bound-met mask (the first 16
// workers away): 6,250 rows of 64 values sliced from one backing array, 25
// blocks of sumBlock ids. It runs under every kernel path (AddTo4's AVX2 body
// serves the avx512 path too), each at GOMAXPROCS 1 (every block on the
// calling goroutine) and 2 (the caller and one helper claim blocks), so the
// split shows without the bench harness; both give ĝ the same bits.
func BenchmarkAggregateFleet(b *testing.B) {
	const n, dim = 50000, 64
	p, err := placement.CR(n, 8, placement.Structural())
	if err != nil {
		b.Fatal(err)
	}
	s := New(p, 7)
	avail := bitset.New(n)
	avail.AddRange(16, n)
	chosen := s.Decode(avail)
	flat := make([]float64, n*dim)
	coded := make([][]float64, n)
	for i := range coded {
		coded[i] = flat[i*dim : (i+1)*dim]
		coded[i][0] = float64(i%7) - 3
	}
	kerneltest.EachPath(b, func(path string) {
		for _, procs := range []int{1, 2} {
			b.Run(path+"/gomaxprocs="+strconv.Itoa(procs), func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, parts, err := s.Aggregate(chosen, coded)
					if err != nil {
						b.Fatal(err)
					}
					parts.Slice()
				}
			})
		}
	})
}

// TestRecoveredPartitionsIgnoresOutOfRangeIDs: Recovered on a chosen set
// holding ids ≥ n used to panic on a dense placement and to wrap the id
// around on a structural one; both now ignore it, as Decode does.
func TestRecoveredPartitionsIgnoresOutOfRangeIDs(t *testing.T) {
	for _, structural := range []bool{false, true} {
		var opts []placement.Option
		if structural {
			opts = append(opts, placement.Structural())
		}
		fr, err := placement.FR(8, 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := placement.CR(8, 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		hr, err := placement.HR(8, 2, 2, 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*placement.Placement{fr, cr, hr} {
			s := New(p, 1)
			want := s.Recovered(bitset.FromSlice([]int{0}))
			if want.Len() != p.C() {
				t.Fatalf("%v: worker 0 recovers %v", p, want)
			}
			for _, stray := range []int{8, 9, 64, 500} {
				got := s.Recovered(bitset.FromSlice([]int{0, stray}))
				if !got.Equal(want) {
					t.Fatalf("%v structural=%v: Recovered({0,%d}) = %v, want %v", p, structural, stray, got, want)
				}
			}
		}
	}
}
