// Package placement implements the dataset-partition placement schemes of
// the paper: fractional repetition (FR), cyclic repetition (CR), and hybrid
// repetition (HR), together with the conflict graphs they induce.
//
// A placement assigns to each of n workers a set of c dataset partitions
// (out of n partitions total). Two workers *conflict* iff their partition
// sets intersect: their plain-sum coded gradients cannot both contribute to
// the recovered gradient ĝ = Σ_{i∈I} g_i without double-counting. The
// conflict graph is the decoding substrate of IS-GC (Sec. V-A).
//
// Workers and partitions are 0-indexed here; the paper is 1-indexed.
package placement

import (
	"fmt"
	"slices"
	"sync"

	"isgc/internal/bitset"
	"isgc/internal/graph"
)

// Kind identifies a placement scheme family.
type Kind int

// Placement scheme families.
const (
	KindFR Kind = iota + 1
	KindCR
	KindHR
)

// String returns the scheme family acronym used in the paper.
func (k Kind) String() string {
	switch k {
	case KindFR:
		return "FR"
	case KindCR:
		return "CR"
	case KindHR:
		return "HR"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Placement describes which partitions each worker stores, plus the derived
// conflict structure. Construct via FR, CR, or HR; the struct is immutable
// after construction (the one exception is the lazily memoized conflict
// graph of a Structural placement, guarded by a sync.Once).
type Placement struct {
	kind Kind
	n    int // number of workers == number of partitions
	c    int // partitions per worker
	// HR parameters (c = c1 + c2); for FR, c1 = c, c2 = 0 semantics differ,
	// so these are only meaningful when kind == KindHR.
	c1, c2 int
	groups int // number of groups g (FR: n/c, HR: given; CR: 1)

	// structural marks a placement built with the Structural option: parts,
	// partSets, and conflict stay nil and every query is answered from the
	// closed-form predicates instead.
	structural bool

	parts    [][]int       // parts[i] = sorted partitions on worker i (nil when structural)
	partSets []*bitset.Set // same, as bitsets (nil when structural)
	conflict *graph.Graph  // ground-truth conflict graph (nil when structural until demanded)
	lazyOnce sync.Once     // builds conflict on demand for structural placements
}

// Option configures placement construction.
type Option func(*buildOpts)

type buildOpts struct {
	structural bool
}

// Structural skips the O(n²) dense conflict graph and the per-worker
// partition bitsets at construction time: Conflicts answers via the
// paper's closed-form predicates (ConflictsFormula — Theorem 1 for CR,
// group arithmetic for FR, Alg. 4 for HR), partition rows are generated on
// demand, and recovered sets never materialise rows at all (see
// RecoveredPartitions). This makes construction O(1) in n and is what lets
// the decoder scale-out harness instantiate placements with tens of
// thousands of workers; the structural predicates are proven equal to the
// ground truth by TestStructuralConflictMatchesGroundTruth and the
// structural decode-equivalence suite.
//
// ConflictGraph() still works on a structural placement — it densifies
// lazily on first call — but costs the full O(n²) it was built to avoid,
// so large-n callers should stick to Conflicts/ConflictsFormula.
func Structural() Option {
	return func(o *buildOpts) { o.structural = true }
}

func applyOpts(opts []Option) buildOpts {
	var o buildOpts
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// FR constructs a fractional-repetition placement: c must divide n; the n
// workers are split into n/c groups and every worker in group k stores
// exactly the partitions {kc, …, kc+c-1} (Sec. III).
func FR(n, c int, opts ...Option) (*Placement, error) {
	if err := checkNC(n, c); err != nil {
		return nil, fmt.Errorf("placement: FR: %w", err)
	}
	if n%c != 0 {
		return nil, fmt.Errorf("placement: FR requires c|n, got n=%d c=%d", n, c)
	}
	p := &Placement{kind: KindFR, n: n, c: c, groups: n / c}
	if applyOpts(opts).structural {
		p.structural = true
		return p, nil
	}
	p.parts = make([][]int, n)
	for i := 0; i < n; i++ {
		p.parts[i] = p.row(i)
	}
	p.finish()
	return p, nil
}

// CR constructs a cyclic-repetition placement: worker i stores partitions
// {i, i+1, …, i+c-1} mod n (Sec. III). No divisibility constraint.
func CR(n, c int, opts ...Option) (*Placement, error) {
	if err := checkNC(n, c); err != nil {
		return nil, fmt.Errorf("placement: CR: %w", err)
	}
	p := &Placement{kind: KindCR, n: n, c: c, groups: 1}
	if applyOpts(opts).structural {
		p.structural = true
		return p, nil
	}
	p.parts = make([][]int, n)
	for i := 0; i < n; i++ {
		p.parts[i] = p.row(i)
	}
	p.finish()
	return p, nil
}

// HR constructs the hybrid-repetition placement HR(n, c1, c2) of Sec. VI-B
// with g groups, g|n, n0 = n/g partitions (and workers) per group, and
// c = c1 + c2 partitions per worker:
//
//   - the "upper part" contributes c1 rows: worker j of group k stores the
//     group-local partitions base + ((j + r) mod n0) for
//     r = n0-c1, …, n0-1 (the bottom c1 rows of HR(n, n0, 0));
//   - the "lower part" contributes c2 rows: the top c2 rows of the global
//     CR(n, c) scheme, i.e. partitions (i + r) mod n for r = 0, …, c2-1.
//
// Special cases (paper, Sec. VI-B): c2 = 0 with c1 = n0 is FR-like grouping;
// c1 = 0 degenerates to CR(n, c) exactly, so HR returns a KindCR placement
// in that case; HR(n, c, 0) ≡ HR(n, c-1, 1) when n0 = c.
//
// Validity (Theorem 6): when c1 > 0 the scheme requires
// c ≤ n0 ≤ min(2c-1, c+c1) so that every group is a clique in the conflict
// graph (the proof of Theorem 6 derives both n0 ≤ c+c1 and n0 ≤ 2c-1), and
// c1 ≤ n0. Note the paper's own Fig. 13 uses g=2 < c=4: g ≥ c is NOT
// required — a worker's lower (CR) rows overflow at most c2-1 < n0
// positions, so conflicts never reach past the clockwise-neighboring group.
func HR(n, c1, c2, g int, opts ...Option) (*Placement, error) {
	c := c1 + c2
	if err := checkNC(n, c); err != nil {
		return nil, fmt.Errorf("placement: HR: %w", err)
	}
	if c1 < 0 || c2 < 0 {
		return nil, fmt.Errorf("placement: HR requires c1, c2 ≥ 0, got c1=%d c2=%d", c1, c2)
	}
	if c1 == 0 {
		return CR(n, c, opts...)
	}
	if g <= 0 || n%g != 0 {
		return nil, fmt.Errorf("placement: HR requires g|n with g > 0, got n=%d g=%d", n, g)
	}
	n0 := n / g
	if c1 > n0 {
		return nil, fmt.Errorf("placement: HR requires c1 ≤ n0, got c1=%d n0=%d", c1, n0)
	}
	if n0 < c || n0 > 2*c-1 || n0 > c+c1 {
		return nil, fmt.Errorf("placement: HR requires c ≤ n0 ≤ min(2c-1, c+c1) (Theorem 6), got c=%d c1=%d n0=%d", c, c1, n0)
	}
	p := &Placement{kind: KindHR, n: n, c: c, c1: c1, c2: c2, groups: g}
	if applyOpts(opts).structural {
		p.structural = true
		// Upper/lower row overlap depends only on the in-group index j (the
		// lower rows that cross a group boundary can never hit the upper
		// rows, which stay in-group), so validating one group's worth of
		// workers covers every worker at O(n0·c) instead of O(n·c).
		for i := 0; i < n0; i++ {
			if row := p.row(i); len(row) != c {
				return nil, fmt.Errorf("placement: HR(n=%d,c1=%d,c2=%d,g=%d): worker %d stores %d distinct partitions, want %d (overlapping upper/lower parts)",
					n, c1, c2, g, i, len(row), c)
			}
		}
		return p, nil
	}
	p.parts = make([][]int, n)
	for i := 0; i < n; i++ {
		p.parts[i] = p.row(i)
		if len(p.parts[i]) != c {
			return nil, fmt.Errorf("placement: HR(n=%d,c1=%d,c2=%d,g=%d): worker %d stores %d distinct partitions, want %d (overlapping upper/lower parts)",
				n, c1, c2, g, i, len(p.parts[i]), c)
		}
	}
	p.finish()
	return p, nil
}

// row generates worker i's sorted partition list from parameters alone —
// the single source of truth both the eager constructors and the
// structural on-demand accessors share. It mirrors addRow: FR and CR rows
// come out sorted from their one or two ranges; an HR row is sorted and
// compacted, so an upper/lower overlap shows as len(row) < c.
func (p *Placement) row(i int) []int {
	row := make([]int, 0, p.c)
	switch p.kind {
	case KindFR:
		base := (i / p.c) * p.c
		for d := base; d < base+p.c; d++ {
			row = append(row, d)
		}
	case KindCR:
		wrapped := max(0, i+p.c-p.n) // partitions past n-1 wrap to 0… and sort first
		for d := 0; d < wrapped; d++ {
			row = append(row, d)
		}
		for d := i; d < i+p.c-wrapped; d++ {
			row = append(row, d)
		}
	case KindHR:
		n0 := p.n / p.groups
		base := (i / n0) * n0
		j := i % n0
		for r := n0 - p.c1; r < n0; r++ {
			row = append(row, base+(j+r)%n0)
		}
		for r := 0; r < p.c2; r++ {
			row = append(row, (i+r)%p.n)
		}
		slices.Sort(row)
		row = slices.Compact(row)
	default:
		panic(fmt.Sprintf("placement: unknown kind %v", p.kind))
	}
	return row
}

// addRow adds worker w's partitions to out as at most four word-masked
// range fills, from the parameters alone: FR is the group's block
// [kc, kc+c); CR is the circular run [w, w+c) mod n; HR is the in-group
// circular run of c1 ending just before w plus the global circular run of
// c2 starting at w.
func (p *Placement) addRow(out *bitset.Set, w int) {
	switch p.kind {
	case KindFR:
		base := (w / p.c) * p.c
		out.AddRange(base, base+p.c)
	case KindCR:
		addCircular(out, 0, p.n, w, p.c)
	case KindHR:
		n0 := p.n / p.groups
		j := w % n0
		addCircular(out, w-j, n0, (j+n0-p.c1)%n0, p.c1)
		addCircular(out, 0, p.n, w, p.c2)
	default:
		panic(fmt.Sprintf("placement: unknown kind %v", p.kind))
	}
}

// addCircular adds base + ((start + t) mod size) for t in [0, length),
// 0 ≤ start < size and length ≤ size: one range, or two when the run wraps.
func addCircular(out *bitset.Set, base, size, start, length int) {
	end := start + length
	if end <= size {
		out.AddRange(base+start, base+end)
		return
	}
	out.AddRange(base+start, base+size)
	out.AddRange(base, base+end-size)
}

func checkNC(n, c int) error {
	if n <= 0 {
		return fmt.Errorf("need n > 0, got n=%d", n)
	}
	if c <= 0 || c > n {
		return fmt.Errorf("need 0 < c ≤ n, got n=%d c=%d", n, c)
	}
	return nil
}

// finish derives bitsets and the ground-truth conflict graph from parts.
func (p *Placement) finish() {
	p.partSets = make([]*bitset.Set, p.n)
	for i, row := range p.parts {
		p.partSets[i] = bitset.FromSlice(row)
	}
	p.conflict = graph.New(p.n)
	for u := 0; u < p.n; u++ {
		for v := u + 1; v < p.n; v++ {
			if p.partSets[u].Intersects(p.partSets[v]) {
				p.conflict.AddEdge(u, v)
			}
		}
	}
}

// Kind returns the scheme family.
func (p *Placement) Kind() Kind { return p.kind }

// N returns the number of workers (== number of partitions).
func (p *Placement) N() int { return p.n }

// C returns the number of partitions per worker.
func (p *Placement) C() int { return p.c }

// C1 returns the HR upper-part row count (0 unless Kind == KindHR).
func (p *Placement) C1() int { return p.c1 }

// C2 returns the HR lower-part (CR) row count (0 unless Kind == KindHR).
func (p *Placement) C2() int { return p.c2 }

// Groups returns the number of groups (FR: n/c, HR: g, CR: 1).
func (p *Placement) Groups() int { return p.groups }

// GroupSize returns the number of workers per group.
func (p *Placement) GroupSize() int { return p.n / p.groups }

// GroupOf returns the group index of worker i.
func (p *Placement) GroupOf(i int) int { return i / p.GroupSize() }

// IsStructural reports whether the placement was built with the Structural
// option (no precomputed partition bitsets or dense conflict graph).
func (p *Placement) IsStructural() bool { return p.structural }

// Partitions returns a copy of the sorted partition list of worker i.
func (p *Placement) Partitions(i int) []int {
	if p.structural {
		return p.row(i)
	}
	out := make([]int, len(p.parts[i]))
	copy(out, p.parts[i])
	return out
}

// PartitionSet returns a copy of worker i's partition set.
func (p *Placement) PartitionSet(i int) *bitset.Set {
	if !p.structural {
		return p.partSets[i].Clone()
	}
	out := &bitset.Set{}
	p.addRow(out, i)
	return out
}

// Workers returns, for each partition, the sorted list of workers storing it.
func (p *Placement) Workers() [][]int {
	holders := make([][]int, p.n)
	for w := 0; w < p.n; w++ {
		var row []int
		if p.structural {
			row = p.row(w)
		} else {
			row = p.parts[w]
		}
		for _, d := range row {
			holders[d] = append(holders[d], w)
		}
	}
	return holders
}

// ConflictGraph returns the ground-truth conflict graph: workers are
// adjacent iff their partition sets intersect. The returned graph is shared
// and must not be mutated; use Clone for a private copy.
//
// On a Structural placement the dense graph is built lazily on first call
// (from the same closed-form predicates Conflicts uses, which tests prove
// equal to partition-set intersection) — an O(n²) cost the structural mode
// otherwise avoids, so large-n callers should prefer Conflicts.
func (p *Placement) ConflictGraph() *graph.Graph {
	if p.structural {
		p.lazyOnce.Do(func() { p.conflict = p.StructuralConflictGraph() })
	}
	return p.conflict
}

// Conflicts reports whether workers u and v conflict (share a partition).
// O(1) via the precomputed adjacency bitsets, or via the closed-form
// predicate (O(c2) for HR, O(1) otherwise) on a Structural placement.
// Structural placements never consult the lazily built dense graph here,
// so Conflicts stays safe for concurrent use even while another goroutine
// densifies via ConflictGraph.
func (p *Placement) Conflicts(u, v int) bool {
	if p.structural {
		return p.ConflictsFormula(u, v)
	}
	return p.conflict.HasEdge(u, v)
}

// RecoveredPartitions returns the union of partitions held by the workers in
// the independent set chosen: these are the indices I of the paper's
// recovered gradient ĝ = Σ_{i∈I} g_i (after mapping worker set → partition
// set). The caller is responsible for chosen being an independent set; if it
// is, |result| = |chosen|·c exactly. Ids outside [0, n) are ignored.
//
// No partition row is generated, on dense and structural placements alike.
// CR's union is the chosen set spread c wide: partition p is recovered iff
// a chosen worker lies in {p−c+1, …, p} mod n, so bitset.SpreadCircular
// builds it in O(n/64 · log c) word operations. FR and HR add each chosen
// worker's closed-form ranges (addRow), O(|chosen|) word fills. Either way
// the only allocation is the n-bit result.
func (p *Placement) RecoveredPartitions(chosen *bitset.Set) *bitset.Set {
	if p.kind == KindCR {
		return chosen.SpreadCircular(p.n, p.c)
	}
	out := bitset.New(p.n)
	it := chosen.Cursor()
	for w := it.Next(); w >= 0 && w < p.n; w = it.Next() {
		p.addRow(out, w)
	}
	return out
}

// String renders a short description, e.g. "CR(n=8,c=3)".
func (p *Placement) String() string {
	switch p.kind {
	case KindHR:
		return fmt.Sprintf("HR(n=%d,c1=%d,c2=%d,g=%d)", p.n, p.c1, p.c2, p.groups)
	default:
		return fmt.Sprintf("%s(n=%d,c=%d)", p.kind, p.n, p.c)
	}
}
