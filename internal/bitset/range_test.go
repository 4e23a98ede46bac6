package bitset

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// nextInRangeViaRangeWords is NextInRange as it was before the direct word
// scan: a callback through rangeWords. Kept as the reference the scan is
// tested against.
func nextInRangeViaRangeWords(s *Set, lo, hi int) int {
	out := -1
	s.rangeWords(lo, hi, func(i int, w uint64) bool {
		if w != 0 {
			out = i*wordBits + bits.TrailingZeros64(w)
			return false
		}
		return true
	})
	return out
}

// rangeCases yields (lo, hi) pairs around a universe of the given size:
// empty and inverted, word-aligned, inside one word, across words, negative
// lo and hi past the end, then random ones.
func rangeCases(rng *rand.Rand, universe int) [][2]int {
	cases := [][2]int{
		{0, 0}, {5, 5}, {9, 3}, {-4, 0}, {-4, 3}, {0, 1}, {63, 64}, {64, 65},
		{0, 64}, {64, 128}, {0, 128}, {64, 192}, {3, 9}, {60, 68}, {1, 200},
		{universe - 1, universe}, {universe, universe + 70}, {universe - 3, universe + 130},
		{0, universe}, {0, universe + 1}, {universe + 64, universe + 65},
	}
	for i := 0; i < 200; i++ {
		lo := rng.Intn(universe+80) - 8
		cases = append(cases, [2]int{lo, lo + rng.Intn(universe+80) - 4})
	}
	return cases
}

// TestAddRangeMatchesPerBitAdd: the word-masked fill sets exactly the bits a
// per-value Add loop sets, on empty and populated sets, including ranges
// that grow the set.
func TestAddRangeMatchesPerBitAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, universe := range []int{1, 63, 64, 65, 128, 200, 1000} {
		for _, r := range rangeCases(rng, universe) {
			lo, hi := r[0], r[1]
			got, want := New(universe), New(universe)
			for i := 0; i < universe/3; i++ {
				v := rng.Intn(universe)
				got.Add(v)
				want.Add(v)
			}
			got.AddRange(lo, hi)
			for v := lo; v < hi; v++ {
				want.Add(v)
			}
			if !got.Equal(want) {
				t.Fatalf("universe %d AddRange(%d,%d): got %v want %v", universe, lo, hi, got, want)
			}
		}
	}
	var zero Set
	zero.AddRange(130, 135)
	if got := zero.Slice(); len(got) != 5 || got[0] != 130 || got[4] != 134 {
		t.Fatalf("AddRange on the zero Set: %v", got)
	}
}

// TestNextInRangeMatchesRangeWordsReference: the direct scan agrees with the
// rangeWords form and with the bit-by-bit reference, including ranges that
// start or end past the set's last word.
func TestNextInRangeMatchesRangeWordsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, universe := range []int{1, 63, 64, 65, 128, 200, 1000} {
		for _, density := range []float64{0, 0.01, 0.2, 1} {
			s := New(universe)
			for v := 0; v < universe; v++ {
				if rng.Float64() < density {
					s.Add(v)
				}
			}
			for _, r := range rangeCases(rng, universe) {
				lo, hi := r[0], r[1]
				got := s.NextInRange(lo, hi)
				if ref := nextInRangeViaRangeWords(s, lo, hi); got != ref {
					t.Fatalf("universe %d density %v NextInRange(%d,%d) = %d, rangeWords form %d", universe, density, lo, hi, got, ref)
				}
				if naive := naiveNextInRange(s, lo, hi, universe); got != naive {
					t.Fatalf("universe %d density %v NextInRange(%d,%d) = %d, bit-by-bit %d", universe, density, lo, hi, got, naive)
				}
			}
		}
	}
	var zero Set
	if got := zero.NextInRange(0, 10); got != -1 {
		t.Fatalf("NextInRange on the zero Set = %d", got)
	}
}

// TestSliceMatchesRange: the word-at-a-time list is the Range enumeration,
// exactly Len() long (length and capacity), and so is a Cursor's walk, on
// empty and full sets, all-ones words beside partial ones, single bits at
// word edges, sets grown past New(n), and random densities.
func TestSliceMatchesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	full := func(n int) *Set { s := New(n); s.AddRange(0, n); return s }
	cases := map[string]*Set{
		"zero value":    {},
		"empty":         New(200),
		"full 64":       full(64),
		"full 200":      full(200),
		"bit 0":         FromSlice([]int{0}),
		"bit 63":        FromSlice([]int{63}),
		"bit 64":        FromSlice([]int{64}),
		"bits 0 63 64":  FromSlice([]int{0, 63, 64}),
		"runs":          FromSlice([]int{5, 127, 300}),
		"grown past":    New(10),
		"ones and part": New(256),
	}
	cases["runs"].AddRange(64, 128)
	cases["runs"].AddRange(192, 256)
	cases["grown past"].Add(4)
	cases["grown past"].AddRange(70, 200)
	cases["grown past"].Add(1000)
	cases["ones and part"].AddRange(0, 64)
	cases["ones and part"].AddRange(130, 256)
	for _, universe := range []int{1, 63, 64, 65, 200, 1000} {
		for _, density := range []float64{0.01, 0.2, 0.5, 0.99} {
			s := New(universe)
			for v := 0; v < universe; v++ {
				if rng.Float64() < density {
					s.Add(v)
				}
			}
			cases[fmt.Sprintf("universe %d density %v", universe, density)] = s
		}
	}
	for name, s := range cases {
		var want []int
		s.Range(func(v int) bool {
			want = append(want, v)
			return true
		})
		got := s.Slice()
		if !slices.Equal(got, want) || len(got) != s.Len() || cap(got) != s.Len() {
			t.Fatalf("%s: Slice() = %v (len %d, cap %d), Range gives %v", name, got, len(got), cap(got), want)
		}
		if app := s.AppendSlice([]int{-1}); app[0] != -1 || !slices.Equal(app[1:], want) {
			t.Fatalf("%s: AppendSlice after a prefix = %v, Range gives %v", name, app, want)
		}
		if reused := s.AppendSlice(got[:0]); !slices.Equal(reused, want) || (len(got) > 0 && &reused[0] != &got[0]) {
			t.Fatalf("%s: AppendSlice into a slice of room = %v, not written in place", name, reused)
		}
		got = got[:0]
		it := s.Cursor()
		for v := it.Next(); v >= 0; v = it.Next() {
			got = append(got, v)
		}
		if !slices.Equal(got, want) || it.Next() != -1 {
			t.Fatalf("%s: Cursor gives %v, Range %v", name, got, want)
		}
	}
	var done Cursor
	if v := done.Next(); v != -1 {
		t.Fatalf("the zero Cursor returned %d", v)
	}
}

// TestCursorRangeMatchesRange: a cursor over [lo, hi) yields the elements
// Range yields in that interval, for word-aligned bounds inside, at and past
// the set's words, and an unaligned bound panics.
func TestCursorRangeMatchesRange(t *testing.T) {
	s := New(1100)
	s.AddRange(0, 64)
	s.AddRange(130, 700)
	for _, v := range []int{63, 64, 127, 128, 1023, 1024, 1099} {
		s.Add(v)
	}
	for lo := 0; lo <= 1280; lo += 64 {
		for hi := lo; hi <= 1280; hi += 64 {
			var want, got []int
			s.Range(func(v int) bool {
				if v >= lo && v < hi {
					want = append(want, v)
				}
				return true
			})
			it := s.CursorRange(lo, hi)
			for v := it.Next(); v >= 0; v = it.Next() {
				got = append(got, v)
			}
			if !slices.Equal(got, want) || it.Next() != -1 {
				t.Fatalf("CursorRange(%d, %d) gives %v, Range %v", lo, hi, got, want)
			}
		}
	}
	for _, b := range [][2]int{{1, 64}, {0, 65}, {-64, 64}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("CursorRange(%d, %d) did not panic", b[0], b[1])
				}
			}()
			s.CursorRange(b[0], b[1])
		}()
	}
}

// naiveNextAbsent is NextAbsent one Contains at a time.
func naiveNextAbsent(s *Set, lo, hi int) int {
	for v := max(lo, 0); v < hi; v++ {
		if !s.Contains(v) {
			return v
		}
	}
	return -1
}

// TestNextAbsentMatchesPerBitReference: the complement scan agrees with the
// per-bit reference on all-zeros and all-ones sets and random densities,
// over ranges that start and end on and beside word edges, empty and
// inverted ones, a negative lo, and a hi past the stored words (where every
// value is absent).
func TestNextAbsentMatchesPerBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, universe := range []int{1, 63, 64, 65, 128, 200, 1000} {
		for _, density := range []float64{0, 0.5, 0.99, 1} {
			s := New(universe)
			for v := 0; v < universe; v++ {
				if rng.Float64() < density {
					s.Add(v)
				}
			}
			cases := rangeCases(rng, universe)
			for _, lo := range []int{-3, 0, 1, 62, 63, 64, 65, 127, 128, universe - 1, universe} {
				for _, hi := range []int{lo, lo + 1, 64, 128, 129, universe, universe + 1, universe + 200} {
					cases = append(cases, [2]int{lo, hi})
				}
			}
			for _, r := range cases {
				lo, hi := r[0], r[1]
				if got, want := s.NextAbsent(lo, hi), naiveNextAbsent(s, lo, hi); got != want {
					t.Fatalf("universe %d density %v NextAbsent(%d,%d) = %d, bit-by-bit %d", universe, density, lo, hi, got, want)
				}
			}
		}
	}
	var zero Set
	if got := zero.NextAbsent(-2, 10); got != 0 {
		t.Fatalf("NextAbsent(-2, 10) on the zero Set = %d, want 0", got)
	}
	full := New(128)
	full.AddRange(0, 128)
	if got := full.NextAbsent(0, 128); got != -1 {
		t.Fatalf("NextAbsent(0, 128) on [0, 128) = %d, want -1", got)
	}
	if got := full.NextAbsent(5, 300); got != 128 {
		t.Fatalf("NextAbsent(5, 300) on [0, 128) = %d, want 128", got)
	}
}

// naiveSpreadCircular is SpreadCircular one element and one offset at a time.
func naiveSpreadCircular(s *Set, n, width int) *Set {
	out := New(n)
	s.Range(func(v int) bool {
		if v < n {
			for k := 0; k < width; k++ {
				out.Add((v + k) % n)
			}
		}
		return true
	})
	return out
}

// TestSpreadCircularMatchesPerBitReference: the shift-and-fold spread equals
// the per-element circular runs for n on and beside word edges, widths 1,
// 2, 63, 64, 65, n−1 and n (shifts of a whole word and more, spills longer
// than a word), on empty, single-element, full and random sets, sets with
// elements ≥ n and sets stored in fewer words than n needs. The result has
// exactly n bits of words.
func TestSpreadCircularMatchesPerBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 3, 63, 64, 65, 127, 128, 129, 130, 200, 300} {
		widths := []int{1, 2, 3, 7, 8, 63, 64, 65, 100, n - 1, n}
		for _, width := range widths {
			if width < 1 || width > n {
				continue
			}
			full := New(n)
			full.AddRange(0, n)
			sets := []*Set{{}, New(n), full, FromSlice([]int{0}), FromSlice([]int{n - 1}), FromSlice([]int{n, n + 5, 3*n + 64})}
			for _, density := range []float64{0.01, 0.1, 0.5, 0.9} {
				s := New(n)
				for v := 0; v < n; v++ {
					if rng.Float64() < density {
						s.Add(v)
					}
				}
				stray := s.Clone()
				stray.Add(n)
				stray.Add(n + width)
				sets = append(sets, s, stray)
			}
			short := New(0)
			short.Add(0)
			sets = append(sets, short)
			for _, s := range sets {
				before := s.Clone()
				got := s.SpreadCircular(n, width)
				if want := naiveSpreadCircular(s, n, width); !got.Equal(want) {
					t.Fatalf("n=%d width=%d: SpreadCircular(%v) = %v, per-element runs %v", n, width, s, got, want)
				}
				if len(got.words) != (n+wordBits-1)/wordBits {
					t.Fatalf("n=%d width=%d: result holds %d words", n, width, len(got.words))
				}
				if !s.Equal(before) {
					t.Fatalf("n=%d width=%d: SpreadCircular changed its receiver", n, width)
				}
			}
		}
	}
	for _, bad := range [][2]int{{10, 0}, {10, 11}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SpreadCircular(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			New(10).SpreadCircular(bad[0], bad[1])
		}()
	}
}
