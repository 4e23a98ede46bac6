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
