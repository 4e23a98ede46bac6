package bitset

import (
	"math/rand"
	"testing"
)

// naive* are the bit-by-bit reference implementations the word-parallel
// predicates are property-tested against. They intentionally share no code
// with the production paths.

func naiveAndNot(a, b *Set, universe int) []int {
	var out []int
	for v := 0; v < universe; v++ {
		if a.Contains(v) && !b.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

func naiveCountInRange(s *Set, lo, hi, universe int) int {
	n := 0
	for v := 0; v < universe; v++ {
		if v >= lo && v < hi && s.Contains(v) {
			n++
		}
	}
	return n
}

func naiveNextInRange(s *Set, lo, hi, universe int) int {
	for v := 0; v < universe; v++ {
		if v >= lo && v < hi && s.Contains(v) {
			return v
		}
	}
	return -1
}

func naiveIntersectionCount(a, b *Set, universe int) int {
	n := 0
	for v := 0; v < universe; v++ {
		if a.Contains(v) && b.Contains(v) {
			n++
		}
	}
	return n
}

func naiveSelect(s *Set, k, universe int) int {
	for v := 0; v < universe; v++ {
		if s.Contains(v) {
			if k == 0 {
				return v
			}
			k--
		}
	}
	return -1
}

func randomSet(rng *rand.Rand, universe int, density float64) *Set {
	s := New(universe)
	for v := 0; v < universe; v++ {
		if rng.Float64() < density {
			s.Add(v)
		}
	}
	return s
}

// TestWordParallelPredicatesVsNaive drives every new predicate against the
// bit-by-bit reference over random sets whose sizes straddle word
// boundaries, with ranges that start/end mid-word, exactly on word edges,
// in the tail word, and beyond capacity.
func TestWordParallelPredicatesVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	universes := []int{0, 1, 5, 63, 64, 65, 127, 128, 129, 200, 300}
	for _, u := range universes {
		for trial := 0; trial < 30; trial++ {
			density := []float64{0, 0.05, 0.3, 0.7, 1}[trial%5]
			a := randomSet(rng, u, density)
			b := randomSet(rng, u, 0.4)
			// Universe+64 lets ranges run past the tail word on purpose.
			probe := u + 64

			got := a.AndNot(b).Slice()
			want := naiveAndNot(a, b, probe)
			if len(got) != len(want) {
				t.Fatalf("u=%d AndNot: got %v want %v", u, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("u=%d AndNot: got %v want %v", u, got, want)
				}
			}
			if g, w := a.IntersectionCount(b), naiveIntersectionCount(a, b, probe); g != w {
				t.Fatalf("u=%d IntersectionCount: got %d want %d", u, g, w)
			}
			if g, w := a.Intersects(b), naiveIntersectionCount(a, b, probe) > 0; g != w {
				t.Fatalf("u=%d Intersects: got %v want %v", u, g, w)
			}

			// Ranges: random plus handcrafted word-boundary cases.
			ranges := [][2]int{
				{0, 0}, {0, probe}, {0, 1}, {63, 64}, {63, 65}, {64, 64},
				{64, 128}, {u - 1, u + 10}, {u, u + 10}, {-5, 3}, {10, 5},
			}
			for r := 0; r < 10; r++ {
				lo := rng.Intn(probe+1) - 2
				ranges = append(ranges, [2]int{lo, lo + rng.Intn(probe+2)})
			}
			for _, rg := range ranges {
				lo, hi := rg[0], rg[1]
				cl, ch := lo, hi // clamp for the naive probe loop
				if cl < 0 {
					cl = 0
				}
				if g, w := a.CountInRange(lo, hi), naiveCountInRange(a, cl, ch, probe); g != w {
					t.Fatalf("u=%d CountInRange(%d,%d): got %d want %d", u, lo, hi, g, w)
				}
				if g, w := a.AnyInRange(lo, hi), naiveCountInRange(a, cl, ch, probe) > 0; g != w {
					t.Fatalf("u=%d AnyInRange(%d,%d): got %v want %v", u, lo, hi, g, w)
				}
				if g, w := a.NextInRange(lo, hi), naiveNextInRange(a, cl, ch, probe); g != w {
					t.Fatalf("u=%d NextInRange(%d,%d): got %d want %d", u, lo, hi, g, w)
				}
			}

			for _, k := range []int{-1, 0, 1, a.Len() - 1, a.Len(), a.Len() + 3} {
				if g, w := a.Select(k), naiveSelect(a, k, probe); g != w {
					if k < 0 && g == -1 && w == -1 {
						continue
					}
					t.Fatalf("u=%d Select(%d): got %d want %d", u, k, g, w)
				}
			}
		}
	}
}

func naiveOccupiedBlocks(s *Set, size, universe int) int {
	n := 0
	for lo := 0; lo < universe; lo += size {
		for v := lo; v < lo+size && v < universe; v++ {
			if s.Contains(v) {
				n++
				break
			}
		}
	}
	return n
}

// TestOccupiedBlocksVsNaive covers both passes — the in-word fold for block
// sizes dividing 64 and the direct test of blocks straddling words — on
// sparse, dense and single-element sets whose sizes straddle word edges.
func TestOccupiedBlocksVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, u := range []int{0, 1, 7, 63, 64, 65, 127, 129, 300, 1000} {
		for trial := 0; trial < 20; trial++ {
			s := randomSet(rng, u, []float64{0, 0.01, 0.1, 0.5, 1}[trial%5])
			if trial%5 == 0 && u > 0 {
				s.Add(rng.Intn(u)) // a lone element, anywhere
			}
			for _, size := range []int{1, 2, 3, 4, 5, 7, 8, 10, 16, 31, 32, 63, 64, 65, 100, 128, 200} {
				if g, w := s.OccupiedBlocks(size), naiveOccupiedBlocks(s, size, u+wordBits); g != w {
					t.Fatalf("u=%d size=%d set=%v: OccupiedBlocks %d, naive %d", u, size, s, g, w)
				}
			}
		}
	}
}

// TestCloneCappedVsNaive checks the word-parallel clamp against an
// element-by-element rebuild, across word-boundary cap values.
func TestCloneCappedVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, u := range []int{0, 1, 63, 64, 65, 129, 300} {
		for trial := 0; trial < 20; trial++ {
			s := randomSet(rng, u, 0.4)
			for _, cap := range []int{0, 1, 5, 63, 64, 65, u - 1, u, u + 7, u + 64} {
				if cap < 0 {
					continue
				}
				want := New(cap)
				for v := 0; v < cap; v++ {
					if s.Contains(v) {
						want.Add(v)
					}
				}
				if got := s.CloneCapped(cap); !got.Equal(want) {
					t.Fatalf("u=%d CloneCapped(%d) = %v, want %v", u, cap, got, want)
				}
			}
		}
	}
}

// TestSelectMatchesRange pins Select(k) to the k-th element Range visits.
func TestSelectMatchesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		s := randomSet(rng, 1+rng.Intn(400), 0.25)
		var elems []int
		s.Range(func(v int) bool { elems = append(elems, v); return true })
		for k, v := range elems {
			if got := s.Select(k); got != v {
				t.Fatalf("Select(%d) = %d, want %d (set %v)", k, got, v, s)
			}
		}
		if got := s.Select(len(elems)); got != -1 {
			t.Fatalf("Select past end = %d, want -1", got)
		}
	}
}

// TestAndNotLeavesOperandsIntact guards the non-mutating contract.
func TestAndNotLeavesOperandsIntact(t *testing.T) {
	a := FromSlice([]int{1, 64, 130})
	b := FromSlice([]int{64})
	before := a.Slice()
	got := a.AndNot(b)
	if !a.Equal(FromSlice(before)) {
		t.Fatalf("AndNot mutated receiver: %v", a)
	}
	if !b.Equal(FromSlice([]int{64})) {
		t.Fatalf("AndNot mutated operand: %v", b)
	}
	if want := FromSlice([]int{1, 130}); !got.Equal(want) {
		t.Fatalf("AndNot = %v, want %v", got, want)
	}
}
