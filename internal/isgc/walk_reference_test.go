package isgc

import (
	"math/rand"
	"testing"

	"isgc/internal/bitset"
	"isgc/internal/graph"
	"isgc/internal/placement"
)

// referenceGreedyWalkCR is a frozen copy of the original linear-scan
// Algorithm 2 pass. The word-parallel greedyWalkCR must stay bit-identical
// to it — not merely same-cardinality — because decode sequences feed
// checkpoint/restore equivalence tests that compare exact chosen sets.
func referenceGreedyWalkCR(avail *bitset.Set, n, c, start int) *bitset.Set {
	cur := bitset.New(n)
	cur.Add(start)
	last := start
	for off := 1; off < n; off++ {
		v := (start + off) % n
		if !avail.Contains(v) {
			continue
		}
		if graph.CircDist(last, v, n) >= c && graph.CircDist(v, start, n) >= c {
			cur.Add(v)
			last = v
		}
	}
	return cur
}

// probeGreedyWalkCR is greedyWalkCR as it was before it took whole runs:
// one nextAvailOffset probe and one Add per accepted vertex. Kept as the
// second oracle, cheap enough to run from many starts at n = 50,000.
func probeGreedyWalkCR(avail *bitset.Set, n, c, start int) *bitset.Set {
	cur := bitset.New(n)
	cur.Add(start)
	offlast := 0
	for {
		lo, hi := offlast+c, n-c // inclusive offset bounds
		if lo > hi {
			break
		}
		o := nextAvailOffset(avail, n, start, lo, hi+1)
		if o < 0 {
			break
		}
		cur.Add((start + o) % n)
		offlast = o
	}
	return cur
}

// referenceRandomAvailable is the original per-bit uniform pick. It must
// consume exactly one rng.Intn(len) draw and return the same element as the
// Select-based replacement for any fixed draw value.
func referenceRandomAvailable(avail *bitset.Set, k int) int {
	picked := -1
	avail.Range(func(v int) bool {
		if k == 0 {
			picked = v
			return false
		}
		k--
		return true
	})
	return picked
}

// referenceDecode is the fresh solve as it was before the walks stopped at
// the structural bound: decodeCR and decodeHR run every walk, with the bound
// counted window by window. Decode must return the same set and leave the
// RNG where this does, for any mask and any draw history.
func referenceDecode(s *Scheme, avail *bitset.Set) *bitset.Set {
	if avail.Empty() {
		return bitset.New(s.p.N()) // Decode returns before any draw
	}
	switch s.p.Kind() {
	case placement.KindCR:
		return referenceDecodeCR(s, avail)
	case placement.KindHR:
		return referenceDecodeHR(s, avail)
	}
	return s.decodeFR(avail)
}

func referenceDecodeCR(s *Scheme, avail *bitset.Set) *bitset.Set {
	n, c := s.p.N(), s.p.C()
	u := s.randomAvailable(avail)
	best := bitset.New(n)
	for off := 0; off < c; off++ {
		start := (u + off) % n
		if !avail.Contains(start) {
			continue
		}
		cur := s.greedyWalkCR(avail, start)
		if cur.Len() > best.Len() {
			best = cur
		}
	}
	return best
}

func referenceDecodeHR(s *Scheme, avail *bitset.Set) *bitset.Set {
	n := s.p.N()
	n0 := s.p.GroupSize()
	u := s.randomAvailable(avail)
	anchorBase := (u / n0) * n0
	best := referenceWalkHRGroup(s, avail, anchorBase, bitset.New(n))
	if bound := referenceFreshBound(s, avail); best.Len() < bound {
		for base := 0; base < n && best.Len() < bound; base += n0 {
			if base != anchorBase {
				best = referenceWalkHRGroup(s, avail, base, best)
			}
		}
	}
	return best
}

func referenceWalkHRGroup(s *Scheme, avail *bitset.Set, base int, best *bitset.Set) *bitset.Set {
	n0 := s.p.GroupSize()
	for start := avail.NextInRange(base, base+n0); start >= 0; start = avail.NextInRange(start+1, base+n0) {
		if cur := s.greedyWalkConflict(avail, start); cur.Len() > best.Len() {
			best = cur
		}
	}
	return best
}

// referenceFreshBound counts the structural bound one range probe at a
// time, sharing no code with bitset.OccupiedBlocks.
func referenceFreshBound(s *Scheme, avail *bitset.Set) int {
	n, c := s.p.N(), s.p.C()
	size := s.p.GroupSize()
	if s.p.Kind() == placement.KindCR {
		size = c
	}
	b := 0
	for lo := 0; lo < n; lo += size {
		if avail.CountInRange(lo, min(lo+size, n)) > 0 {
			b++
		}
	}
	if s.p.Kind() == placement.KindCR {
		return min(b, n/c)
	}
	return b
}

// decodeTwins runs Decode on one scheme and referenceDecode on its
// twin (same placement, same seed, same draw history) and fails unless the
// chosen sets and the RNG positions agree — and, on the way, the structural
// bound agrees with its probe-by-probe reference. It returns Decode's set.
func decodeTwins(t testing.TB, s, ref *Scheme, avail *bitset.Set) *bitset.Set {
	t.Helper()
	clamped := avail.CloneCapped(s.p.N())
	if got, want := s.freshBound(clamped), referenceFreshBound(ref, clamped); got != want {
		t.Fatalf("%v W'=%v: freshBound %d, reference %d", s.p, avail, got, want)
	}
	got := s.Decode(avail)
	want := referenceDecode(ref, clamped)
	if !got.Equal(want) {
		t.Fatalf("%v W'=%v: Decode chose %v, every-walk reference %v", s.p, avail, got, want)
	}
	gs, gd := s.RandState()
	ws, wd := ref.RandState()
	if gs != ws || gd != wd {
		t.Fatalf("%v W'=%v: RNG at (%d, %d) after Decode, (%d, %d) after the reference", s.p, avail, gs, gd, ws, wd)
	}
	return got
}

// TestDecodeMatchesEveryWalk is the differential suite for the early stop:
// Decode against the every-walk reference on twin-seeded schemes, over
// every mask of the exhaustive placements (n ≤ 12), then random masks and
// drift and burst mask walks at n ∈ {16, 33, 64, 2048}.
func TestDecodeMatchesEveryWalk(t *testing.T) {
	t.Run("exhaustive", func(t *testing.T) {
		for _, p := range exhaustivePlacements(t) {
			s, ref := New(p, 1), New(p, 1)
			n := p.N()
			for mask := 0; mask < 1<<n; mask++ {
				avail := bitset.New(n)
				for v := 0; v < n; v++ {
					if mask&(1<<v) != 0 {
						avail.Add(v)
					}
				}
				decodeTwins(t, s, ref, avail)
			}
		}
	})
	for _, p := range walkDifferentialPlacements(t) {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			n := p.N()
			rng := rand.New(rand.NewSource(int64(n)))
			s, ref := New(p, int64(n)+3), New(p, int64(n)+3)
			for trial := 0; trial < 10; trial++ {
				density := []float64{0.05, 0.3, 0.7, 0.95, 1}[trial%5]
				avail := bitset.New(n)
				for v := 0; v < n; v++ {
					if rng.Float64() < density {
						avail.Add(v)
					}
				}
				decodeTwins(t, s, ref, avail)
			}
			for _, burst := range []bool{false, true} {
				w := newMaskWalk(rng, n, burst)
				for step := 0; step < 100; step++ {
					w.step(step)
					decodeTwins(t, s, ref, w.avail)
				}
			}
		})
	}
}

// walkDifferentialPlacements are CR and HR at n ∈ {16, 33, 64, 2048}, with
// window and group widths on both of OccupiedBlocks' passes (dividing 64
// or not).
func walkDifferentialPlacements(t *testing.T) []*placement.Placement {
	t.Helper()
	var ps []*placement.Placement
	for _, n := range []int{16, 33, 64, 2048} {
		for _, c := range []int{2, 3, 7, 8} {
			p, err := placement.CR(n, c)
			if err != nil {
				t.Fatalf("CR(%d,%d): %v", n, c, err)
			}
			ps = append(ps, p)
		}
	}
	for _, hr := range [][4]int{{16, 2, 2, 4}, {33, 5, 3, 3}, {64, 2, 2, 16}, {64, 3, 3, 8}, {2048, 8, 8, 128}} {
		p, err := placement.HR(hr[0], hr[1], hr[2], hr[3])
		if err != nil {
			t.Fatalf("HR%v: %v", hr, err)
		}
		ps = append(ps, p)
	}
	return ps
}

// maskWalk is a long-running fleet's availability in miniature: one
// departure per step that returns five steps later, and with burst set,
// every 16th step a contiguous block of max(2, n/64) workers leaving together, as
// fleet-churn bursts n/64.
type maskWalk struct {
	rng     *rand.Rand
	n       int
	burst   bool
	avail   *bitset.Set
	returns [6][]int // returns[t%6] come back at step t
}

func newMaskWalk(rng *rand.Rand, n int, burst bool) *maskWalk {
	w := &maskWalk{rng: rng, n: n, burst: burst, avail: bitset.New(n)}
	w.avail.AddRange(0, n)
	return w
}

func (w *maskWalk) leave(t, v int) {
	if w.avail.Contains(v) {
		w.avail.Remove(v)
		w.returns[(t+5)%6] = append(w.returns[(t+5)%6], v)
	}
}

func (w *maskWalk) step(t int) {
	for _, v := range w.returns[t%6] {
		w.avail.Add(v)
	}
	w.returns[t%6] = w.returns[t%6][:0]
	w.leave(t, w.rng.Intn(w.n))
	if w.burst && t%16 == 0 {
		lo := w.rng.Intn(w.n)
		for v := lo; v < lo+max(2, w.n/64); v++ {
			w.leave(t, v%w.n)
		}
	}
}

// TestDecodeMatchesEveryWalkAtFleetScale runs the twins on CR(50000, 8)
// and HR(50000, 4, 4, 5000) over three masks: the first 16 workers away
// (the first CR walk meets the bound), that hole plus every 97th worker
// (no CR walk does: all c run), and the hole plus a fleet-churn burst of
// n/64 contiguous workers and a few single departures. On the first, a CR
// Decode allocates one walk's sets, not c.
func TestDecodeMatchesEveryWalkAtFleetScale(t *testing.T) {
	const n = 50000
	hole := bitset.New(n)
	hole.AddRange(16, n)
	sparse := hole.Clone()
	for w := 16; w < n; w += 97 {
		sparse.Remove(w)
	}
	burst := hole.Clone()
	for w := 20000; w < 20000+n/64; w++ {
		burst.Remove(w)
	}
	for _, w := range []int{101, 7777, 31337, 49999} {
		burst.Remove(w)
	}
	masks := []struct {
		name  string
		avail *bitset.Set
	}{{"hole", hole}, {"hole+every-97th", sparse}, {"hole+burst", burst}}

	cr, err := placement.CR(n, 8, placement.Structural())
	if err != nil {
		t.Fatal(err)
	}
	hr, err := placement.HR(n, 4, 4, 5000, placement.Structural())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*placement.Placement{cr, hr} {
		s, ref := New(p, 7), New(p, 7)
		for _, m := range masks {
			for rep := 0; rep < 3; rep++ {
				decodeTwins(t, s, ref, m.avail)
			}
		}
	}

	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	s := New(cr, 7)
	walk := testing.AllocsPerRun(5, func() { s.greedyWalkCR(hole, 16) })
	clamp := testing.AllocsPerRun(5, func() { s.clampAvailable(hole) })
	if got := testing.AllocsPerRun(5, func() { s.Decode(hole) }); got > clamp+walk {
		t.Fatalf("CR Decode on the hole mask made %.0f allocations; the mask clamp and one walk make %.0f",
			got, clamp+walk)
	}
}

// TestGreedyWalkCRMatchesLinearReference sweeps n up to 300 (runs that
// cross word boundaries), c ∈ {1, …, 8, 63, 64, 65, n−1}, random densities
// and every available start, asserting the run-at-a-time walk equals the
// frozen linear walk and the probe-per-accept walk element for element.
// Beside the random masks it walks the full mask and the full mask less
// one worker or one block, from every start: there one run of available
// workers crosses both the wrap back to 0 and the walk's n−c cap. One full
// mask, less worker 1, also holds ids n…n+69, which the walk must not
// take for workers.
func TestGreedyWalkCRMatchesLinearReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{2, 3, 4, 5, 8, 13, 16, 31, 64, 65, 100, 129, 191, 256, 300} {
		for _, c := range []int{1, 2, 3, 4, 5, 6, 7, 8, 63, 64, 65, n - 1} {
			if c < 1 || c >= n {
				continue
			}
			p, err := placement.CR(n, c, placement.Structural())
			if err != nil {
				t.Fatalf("CR(%d,%d): %v", n, c, err)
			}
			s := New(p, 1)
			var masks []*bitset.Set
			full := bitset.New(n)
			full.AddRange(0, n)
			stray := full.Clone() // ids ≥ n are not workers: the walk must not read them
			stray.Remove(1)
			stray.AddRange(n, n+70)
			masks = append(masks, full, stray)
			for _, gap := range [][2]int{{n / 2, n/2 + 1}, {n / 3, n/3 + c}, {n - 1, n}} {
				m := full.Clone()
				for v := gap[0]; v < gap[1]; v++ {
					m.Remove(v)
				}
				masks = append(masks, m)
			}
			for trial := 0; trial < 12; trial++ {
				avail := bitset.New(n)
				for v := 0; v < n; v++ {
					if rng.Float64() < []float64{0.1, 0.5, 0.9, 0.99}[trial%4] {
						avail.Add(v)
					}
				}
				masks = append(masks, avail)
			}
			for _, avail := range masks {
				avail.Range(func(start int) bool {
					if start >= n {
						return false
					}
					got := s.greedyWalkCR(avail, start)
					if want := referenceGreedyWalkCR(avail, n, c, start); !got.Equal(want) {
						t.Fatalf("n=%d c=%d start=%d avail=%v: walk %v, linear reference %v",
							n, c, start, avail, got, want)
					}
					if want := probeGreedyWalkCR(avail, n, c, start); !got.Equal(want) {
						t.Fatalf("n=%d c=%d start=%d avail=%v: walk %v, probe-per-accept walk %v",
							n, c, start, avail, got, want)
					}
					return true
				})
			}
		}
	}
}

// TestGreedyWalkCRAtFleetScale compares the run-at-a-time walk with the
// probe-per-accept walk on CR(50000, 8) from every available start in
// windows at 0, at the hole's edge, at both edges of the burst, and at the
// wrap. The masks are the fleet tests' two (the first 16 workers away, and
// that hole plus every 97th worker), the hole plus an n/64 burst and worker
// n−1, and a churned mask: a burst mask walk 194 steps on, with its last
// burst and its last five steps' single departures away.
func TestGreedyWalkCRAtFleetScale(t *testing.T) {
	const n, c = 50000, 8
	p, err := placement.CR(n, c, placement.Structural())
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, 1)
	hole := bitset.New(n)
	hole.AddRange(16, n)
	sparse := hole.Clone()
	for w := 16; w < n; w += 97 {
		sparse.Remove(w)
	}
	burst := hole.Clone()
	for w := 20000; w < 20000+n/64; w++ {
		burst.Remove(w)
	}
	burst.Remove(n - 1)
	churn := newMaskWalk(rand.New(rand.NewSource(30)), n, true)
	for step := 0; step < 194; step++ { // step 192's burst is still away
		churn.step(step)
	}
	masks := []struct {
		name  string
		avail *bitset.Set
	}{{"bound-met", hole}, {"every-97th", sparse}, {"burst", burst}, {"churned", churn.avail}}
	for _, m := range masks {
		for _, lo := range []int{0, 10, 20000 - 2*c, 20000 + n/64 - 2*c, n - 3*c} {
			for start := lo; start < lo+3*c; start++ {
				if !m.avail.Contains(start) {
					continue
				}
				got := s.greedyWalkCR(m.avail, start)
				if want := probeGreedyWalkCR(m.avail, n, c, start); !got.Equal(want) {
					t.Fatalf("%s start=%d: walk chose %d workers, probe-per-accept walk %d (first difference at %d)",
						m.name, start, got.Len(), want.Len(), got.AndNot(want).Min())
				}
			}
		}
	}
}

// TestRandomAvailableMatchesReference fixes the rng draw and checks the
// Select-based pick lands on the same worker as the per-bit walk, for masks
// straddling word boundaries.
func TestRandomAvailableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		avail := bitset.New(n)
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.3 {
				avail.Add(v)
			}
		}
		if avail.Empty() {
			avail.Add(rng.Intn(n))
		}
		for k := 0; k < avail.Len(); k++ {
			if got, want := avail.Select(k), referenceRandomAvailable(avail, k); got != want {
				t.Fatalf("n=%d k=%d: Select=%d reference=%d (avail %v)", n, k, got, want, avail)
			}
		}
	}
}
