package placement

import (
	"math/rand"
	"slices"
	"testing"

	"isgc/internal/bitset"
)

// closedFormShapes is every shape in the package's tables, dense and
// structural: the structuralPairs spread, every valid HR up to n = 16 (rows
// that wrap inside a group and rows that cross a group boundary), CR with
// c == n, where every row is the whole circle, and CR at n ∈ {1, 63, 64,
// 65, 130} with c ∈ {1, 63, 64, 65, n−1, n}, where CR's spread shifts by a
// word or more and its spill past n is longer than a word.
func closedFormShapes(t *testing.T) []*Placement {
	t.Helper()
	var out []*Placement
	for _, pair := range structuralPairs(t) {
		out = append(out, pair[0], pair[1])
	}
	add := func(p *Placement, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	for _, n := range []int{1, 6, 7} {
		add(CR(n, n))
		add(CR(n, n, Structural()))
	}
	for _, n := range []int{1, 63, 64, 65, 130} {
		for _, c := range []int{1, 63, 64, 65, n - 1, n} {
			if c >= 1 && c <= n {
				add(CR(n, c))
				add(CR(n, c, Structural()))
			}
		}
	}
	for _, q := range hrParams(16) {
		add(HR(q[0], q[1], q[2], q[3]))
		add(HR(q[0], q[1], q[2], q[3], Structural()))
	}
	return out
}

// referenceRow is row as it was before the closed form: the defining
// modular expressions, then sorted and deduplicated through a bitset.
func referenceRow(p *Placement, i int) []int {
	var row []int
	switch p.kind {
	case KindFR:
		for j := 0; j < p.c; j++ {
			row = append(row, (i/p.c)*p.c+j)
		}
	case KindCR:
		for j := 0; j < p.c; j++ {
			row = append(row, (i+j)%p.n)
		}
	case KindHR:
		n0 := p.n / p.groups
		base, j := (i/n0)*n0, i%n0
		for r := n0 - p.c1; r < n0; r++ {
			row = append(row, base+(j+r)%n0)
		}
		for r := 0; r < p.c2; r++ {
			row = append(row, (i+r)%p.n)
		}
	}
	return bitset.FromSlice(row).Slice()
}

// TestRowMatchesDedupSortedReference: row, Partitions and PartitionSet
// agree with the bitset-sorted reference for every worker of every shape.
func TestRowMatchesDedupSortedReference(t *testing.T) {
	for _, p := range closedFormShapes(t) {
		for i := 0; i < p.N(); i++ {
			want := referenceRow(p, i)
			if got := p.row(i); !slices.Equal(got, want) {
				t.Fatalf("%v structural=%v: row(%d) = %v, reference %v", p, p.IsStructural(), i, got, want)
			}
			if got := p.Partitions(i); !slices.Equal(got, want) {
				t.Fatalf("%v structural=%v: Partitions(%d) = %v, reference %v", p, p.IsStructural(), i, got, want)
			}
			if got := p.PartitionSet(i).Slice(); !slices.Equal(got, want) {
				t.Fatalf("%v structural=%v: PartitionSet(%d) = %v, reference %v", p, p.IsStructural(), i, got, want)
			}
		}
	}
}

// TestRowMatchesReferenceOnHROverlap: the sort-and-compact in row must
// still shorten an HR row whose upper and lower parts overlap, because
// that is what the constructors' len(row) != c check rejects.
func TestRowMatchesReferenceOnHROverlap(t *testing.T) {
	// n0 = 4 < c = 5: worker 0's lower run {0,1} meets its upper run {1,2,3}.
	p := &Placement{kind: KindHR, n: 8, c: 5, c1: 3, c2: 2, groups: 2}
	got := p.row(0)
	if want := referenceRow(p, 0); !slices.Equal(got, want) || len(got) != 4 {
		t.Fatalf("row(0) = %v, reference %v, want 4 distinct partitions", got, want)
	}
	if _, err := HR(8, 3, 2, 2); err == nil {
		t.Fatal("HR(8,3,2,2) accepted")
	}
}

// TestRecoveredPartitionsMatchesRowUnion: the closed-form range fill equals
// the union of Partitions(w) over the chosen workers — for single workers
// (every wrap-around and boundary-crossing row), the whole fleet and random
// subsets, none of which need be independent — and ignores ids ≥ n.
func TestRecoveredPartitionsMatchesRowUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, p := range closedFormShapes(t) {
		n := p.N()
		var sets []*bitset.Set
		all := bitset.New(n)
		for w := 0; w < n; w++ {
			sets = append(sets, bitset.FromSlice([]int{w}))
			all.Add(w)
		}
		sets = append(sets, all, bitset.New(n), &bitset.Set{})
		for k := 0; k < 20; k++ {
			s := bitset.New(n)
			for w := 0; w < n; w++ {
				if rng.Intn(3) == 0 {
					s.Add(w)
				}
			}
			sets = append(sets, s)
		}
		for _, chosen := range sets {
			want := bitset.New(n)
			chosen.Range(func(w int) bool {
				for _, d := range p.Partitions(w) {
					want.Add(d)
				}
				return true
			})
			if got := p.RecoveredPartitions(chosen); !got.Equal(want) {
				t.Fatalf("%v structural=%v: RecoveredPartitions(%v) = %v, union of rows %v", p, p.IsStructural(), chosen, got, want)
			}
			stray := chosen.Clone()
			stray.Add(n)
			stray.Add(n + 1)
			stray.Add(3*n + 64)
			if got := p.RecoveredPartitions(stray); !got.Equal(want) {
				t.Fatalf("%v structural=%v: RecoveredPartitions(%v) = %v, want ids ≥ n ignored: %v", p, p.IsStructural(), stray, got, want)
			}
		}
	}
}
