package isgc

import (
	"math"
	"math/rand"
	"testing"

	"isgc/internal/bitset"
	"isgc/internal/graph"
	"isgc/internal/placement"
)

func mustScheme(t *testing.T, p *placement.Placement, err error, seed int64) *Scheme {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return New(p, seed)
}

func frScheme(t *testing.T, n, c int, seed int64) *Scheme {
	t.Helper()
	p, err := placement.FR(n, c)
	return mustScheme(t, p, err, seed)
}

func crScheme(t *testing.T, n, c int, seed int64) *Scheme {
	t.Helper()
	p, err := placement.CR(n, c)
	return mustScheme(t, p, err, seed)
}

func hrScheme(t *testing.T, n, c1, c2, g int, seed int64) *Scheme {
	t.Helper()
	p, err := placement.HR(n, c1, c2, g)
	return mustScheme(t, p, err, seed)
}

func randAvail(rng *rand.Rand, n int, p float64) *bitset.Set {
	s := bitset.New(n)
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			s.Add(v)
		}
	}
	return s
}

// checkDecode verifies the decoder contract on one instance: the chosen set
// is an available independent set of the conflict graph whose size matches
// the exact independence number α(G[W']).
func checkDecode(t *testing.T, s *Scheme, avail *bitset.Set) {
	t.Helper()
	chosen := s.Decode(avail)
	if !chosen.SubsetOf(avail) {
		t.Fatalf("%v: chosen %v ⊄ available %v", s.Placement(), chosen, avail)
	}
	cg := s.Placement().ConflictGraph()
	if !cg.IsIndependent(chosen) {
		t.Fatalf("%v: chosen %v not independent (W'=%v)", s.Placement(), chosen, avail)
	}
	want := graph.IndependenceNumber(cg, avail)
	if chosen.Len() != want {
		t.Fatalf("%v: decode size %d ≠ α(G[W']) = %d (W'=%v, chosen=%v)",
			s.Placement(), chosen.Len(), want, avail, chosen)
	}
}

func TestDecodeEmptyAvailability(t *testing.T) {
	for _, s := range []*Scheme{frScheme(t, 4, 2, 1), crScheme(t, 5, 2, 1), hrScheme(t, 8, 2, 2, 2, 1)} {
		if got := s.Decode(bitset.New(s.Placement().N())); !got.Empty() {
			t.Errorf("%v: Decode(∅) = %v, want empty", s.Placement(), got)
		}
		if got := s.Decode(nil); !got.Empty() {
			t.Errorf("%v: Decode(nil) = %v, want empty", s.Placement(), got)
		}
	}
}

func TestDecodeIgnoresOutOfRangeWorkers(t *testing.T) {
	s := crScheme(t, 4, 2, 3)
	avail := bitset.FromSlice([]int{1, 3, 99})
	chosen := s.Decode(avail)
	if chosen.Contains(99) {
		t.Fatal("decode must ignore out-of-range worker ids")
	}
	if chosen.Len() != 2 {
		t.Fatalf("decode size %d, want 2", chosen.Len())
	}
}

// Paper Fig. 1(d): CR(4, 2), workers W2 and W4 available (0-indexed 1, 3):
// IS-GC fully recovers g1+g2+g3+g4 from just two workers, which classic GC
// (s = c-1 = 1) cannot do with two stragglers.
func TestPaperFig1dFullRecoveryFromTwoWorkers(t *testing.T) {
	s := crScheme(t, 4, 2, 1)
	avail := bitset.FromSlice([]int{1, 3})
	chosen := s.Decode(avail)
	if chosen.Len() != 2 {
		t.Fatalf("chosen = %v, want both workers", chosen)
	}
	if got := s.RecoveredFraction(avail); got != 1.0 {
		t.Fatalf("recovered fraction = %v, want 1.0", got)
	}
}

// Sec. V-A motivating example (Fig. 3): receiving W1 first is a trap — the
// optimal choice given {W2, W4} later is to discard W1. The decoder sees
// the full availability set, so it must find the 2-worker solution.
func TestCRNonGreedyBySequence(t *testing.T) {
	s := crScheme(t, 4, 2, 2)
	avail := bitset.FromSlice([]int{0, 1, 3}) // W1, W2, W4 in paper numbering
	chosen := s.Decode(avail)
	if chosen.Len() != 2 {
		t.Fatalf("chosen = %v (size %d), want size 2 ({1,3})", chosen, chosen.Len())
	}
	if !chosen.Contains(1) || !chosen.Contains(3) {
		t.Fatalf("chosen = %v, want {1, 3}", chosen)
	}
}

// The online view of Sec. V-A is Decode over the arrivals so far: as
// arrivals grow, an early pick may leave the chosen set (Fig. 3: W1 first,
// then W2 and W4), and the recovered partition count never falls.
func TestDecodeArrivalPrefixes(t *testing.T) {
	s := crScheme(t, 4, 2, 1)
	arrived := bitset.New(4)
	arrived.Add(0)
	if got := s.Decode(arrived); got.Len() != 1 || !got.Contains(0) {
		t.Fatalf("after first arrival chosen = %v, want {0}", got)
	}
	arrived.Add(1)
	arrived.Add(3)
	if got := s.Decode(arrived); got.Len() != 2 || !got.Contains(1) || !got.Contains(3) {
		t.Fatalf("after arrivals 0, 1, 3 chosen = %v, want {1, 3} (worker 0 discarded)", got)
	}

	rng := rand.New(rand.NewSource(8))
	for _, s := range []*Scheme{
		frScheme(t, 8, 2, 1),
		crScheme(t, 9, 3, 2),
		hrScheme(t, 8, 2, 2, 2, 3),
	} {
		p := s.Placement()
		for trial := 0; trial < 30; trial++ {
			arrived := bitset.New(p.N())
			prev := 0
			for _, w := range rng.Perm(p.N()) {
				arrived.Add(w)
				chosen := s.Decode(arrived)
				recovered := p.RecoveredPartitions(chosen).Len()
				if recovered < prev {
					t.Fatalf("%v: recovered partitions fell %d → %d after arrivals %v", p, prev, recovered, arrived)
				}
				prev = recovered
			}
			if prev != p.N() {
				t.Fatalf("%v: every worker arrived but %d of %d partitions recovered", p, prev, p.N())
			}
		}
	}
}

// The Fig. 4(b) trap for Alg. 2's multi-start rule: with W' = {W1, W2, W3}
// in CR(4, 2), starting at W2 alone yields only {W2}, but the maximum is
// {W1, W3}. The c-start window must recover the maximum regardless of the
// random anchor.
func TestCRMultiStartEscapesLocalOptimum(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		s := crScheme(t, 4, 2, seed)
		avail := bitset.FromSlice([]int{0, 1, 2})
		chosen := s.Decode(avail)
		if chosen.Len() != 2 {
			t.Fatalf("seed %d: chosen = %v, want {0, 2}", seed, chosen)
		}
	}
}

func TestDecodeFROptimalExhaustive(t *testing.T) {
	// All availability subsets for small FR instances.
	for _, tc := range []struct{ n, c int }{{4, 2}, {6, 2}, {6, 3}, {8, 4}, {9, 3}, {5, 1}, {4, 4}} {
		s := frScheme(t, tc.n, tc.c, 7)
		for mask := 0; mask < 1<<tc.n; mask++ {
			avail := bitset.New(tc.n)
			for v := 0; v < tc.n; v++ {
				if mask&(1<<v) != 0 {
					avail.Add(v)
				}
			}
			checkDecode(t, s, avail)
		}
	}
}

func TestDecodeCROptimalExhaustive(t *testing.T) {
	for _, tc := range []struct{ n, c int }{{4, 2}, {5, 2}, {6, 3}, {7, 3}, {8, 3}, {9, 4}, {6, 1}, {5, 5}, {10, 4}} {
		s := crScheme(t, tc.n, tc.c, 13)
		for mask := 0; mask < 1<<tc.n; mask++ {
			avail := bitset.New(tc.n)
			for v := 0; v < tc.n; v++ {
				if mask&(1<<v) != 0 {
					avail.Add(v)
				}
			}
			checkDecode(t, s, avail)
		}
	}
}

func TestDecodeHROptimalExhaustive(t *testing.T) {
	for _, tc := range []struct{ n, c1, c2, g int }{
		{8, 4, 0, 2}, {8, 3, 1, 2}, {8, 2, 2, 2}, {8, 1, 3, 2}, // Fig. 13 family
		{9, 2, 1, 3}, {9, 3, 0, 3}, {12, 2, 2, 3}, {12, 2, 1, 4},
		{10, 3, 2, 2}, {16, 2, 2, 4},
	} {
		s := hrScheme(t, tc.n, tc.c1, tc.c2, tc.g, 17)
		n := tc.n
		for mask := 0; mask < 1<<n; mask++ {
			avail := bitset.New(n)
			for v := 0; v < n; v++ {
				if mask&(1<<v) != 0 {
					avail.Add(v)
				}
			}
			checkDecode(t, s, avail)
		}
	}
}

// Randomized deep check across many seeds and larger n, all schemes.
func TestDecodeOptimalRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var schemes []*Scheme
	for _, tc := range []struct{ n, c int }{{12, 3}, {20, 4}, {24, 2}, {15, 5}} {
		schemes = append(schemes, frScheme(t, tc.n, tc.c, rng.Int63()))
	}
	for _, tc := range []struct{ n, c int }{{12, 3}, {20, 4}, {24, 2}, {17, 5}, {23, 7}} {
		schemes = append(schemes, crScheme(t, tc.n, tc.c, rng.Int63()))
	}
	for _, tc := range []struct{ n, c1, c2, g int }{
		{16, 2, 2, 4}, {20, 3, 2, 4}, {24, 2, 1, 8}, {18, 4, 2, 3}, {24, 3, 3, 4},
	} {
		schemes = append(schemes, hrScheme(t, tc.n, tc.c1, tc.c2, tc.g, rng.Int63()))
	}
	for _, s := range schemes {
		for trial := 0; trial < 150; trial++ {
			checkDecode(t, s, randAvail(rng, s.Placement().N(), 0.2+0.6*rng.Float64()))
		}
	}
}

// Fairness (Sec. IV): when workers straggle i.i.d., every partition must
// appear in ĝ with (approximately) equal probability. We fix |W'| = w drawn
// uniformly among w-subsets and count partition inclusion.
func TestDecodeFairnessAcrossPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	schemes := []*Scheme{
		frScheme(t, 8, 2, 21),
		crScheme(t, 8, 2, 22),
		hrScheme(t, 8, 2, 2, 2, 23),
	}
	const trials = 6000
	for _, s := range schemes {
		n := s.Placement().N()
		counts := make([]int, n)
		for trial := 0; trial < trials; trial++ {
			// Uniform random 4-subset of workers.
			perm := rng.Perm(n)
			avail := bitset.FromSlice(perm[:4])
			rec := s.Recovered(s.Decode(avail))
			rec.Range(func(d int) bool {
				counts[d]++
				return true
			})
		}
		mean := 0.0
		for _, c := range counts {
			mean += float64(c)
		}
		mean /= float64(n)
		for d, c := range counts {
			if dev := math.Abs(float64(c)-mean) / mean; dev > 0.08 {
				t.Errorf("%v: partition %d inclusion count %d deviates %.1f%% from mean %.1f",
					s.Placement(), d, c, dev*100, mean)
			}
		}
	}
}

// Determinism: same seed + same availability sequence ⇒ same decodes.
func TestDecodeDeterministicUnderSeed(t *testing.T) {
	run := func(seed int64) []string {
		s := crScheme(t, 10, 3, seed)
		rng := rand.New(rand.NewSource(4))
		var out []string
		for i := 0; i < 50; i++ {
			out = append(out, s.Decode(randAvail(rng, 10, 0.5)).String())
		}
		return out
	}
	a, b := run(77), run(77)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: %s ≠ %s", i, a[i], b[i])
		}
	}
}

func TestRecoveredFractionBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := crScheme(t, 12, 3, 8)
	for trial := 0; trial < 200; trial++ {
		avail := randAvail(rng, 12, 0.5)
		f := s.RecoveredFraction(avail)
		if f < 0 || f > 1 {
			t.Fatalf("fraction %v out of [0,1]", f)
		}
		if avail.Empty() && f != 0 {
			t.Fatalf("fraction %v for empty availability", f)
		}
		w := avail.Len()
		if w > 0 {
			lo, _ := s.Placement().AlphaBounds(w)
			if f < float64(lo*3)/12 {
				t.Fatalf("fraction %v below theorem lower bound %v (w=%d)", f, float64(lo*3)/12, w)
			}
		}
	}
}

// Full recovery threshold: with w ≥ n-c+1 available workers IS-GC always
// recovers all gradients on FR and CR (matches GC's guarantee; Fig. 12(a)
// shows 100% at w = 3 = n-c+1 for n=4, c=2).
func TestFullRecoveryAtGCThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, s := range []*Scheme{frScheme(t, 12, 3, 1), crScheme(t, 12, 3, 2), crScheme(t, 9, 3, 3), frScheme(t, 8, 2, 4), crScheme(t, 8, 2, 5)} {
		n, c := s.Placement().N(), s.Placement().C()
		w := n - c + 1
		for trial := 0; trial < 50; trial++ {
			perm := rng.Perm(n)
			avail := bitset.FromSlice(perm[:w])
			if f := s.RecoveredFraction(avail); f != 1.0 {
				t.Fatalf("%v: w=%d recovered %v, want full recovery", s.Placement(), w, f)
			}
		}
	}
}

func TestEncodeSumsPartitionGradients(t *testing.T) {
	s := crScheme(t, 4, 2, 1)
	grads := [][]float64{{1, 0}, {0, 1}, {2, 2}, {-1, 3}}
	coded, err := s.Encode(0, grads) // worker 0 holds partitions {0, 1}
	if err != nil {
		t.Fatal(err)
	}
	if coded[0] != 1 || coded[1] != 1 {
		t.Fatalf("coded = %v, want [1 1]", coded)
	}
	coded3, err := s.Encode(3, grads) // worker 3 holds {3, 0}
	if err != nil {
		t.Fatal(err)
	}
	if coded3[0] != 0 || coded3[1] != 3 {
		t.Fatalf("coded = %v, want [0 3]", coded3)
	}
}

func TestEncodeErrors(t *testing.T) {
	s := crScheme(t, 4, 2, 1)
	if _, err := s.Encode(-1, make([][]float64, 4)); err == nil {
		t.Error("expected error for negative worker")
	}
	if _, err := s.Encode(4, make([][]float64, 4)); err == nil {
		t.Error("expected error for worker ≥ n")
	}
	if _, err := s.Encode(0, make([][]float64, 3)); err == nil {
		t.Error("expected error for wrong gradient count")
	}
	if _, err := s.Encode(0, [][]float64{{1}, {1, 2}, {1}, {1}}); err == nil {
		t.Error("expected error for mismatched dims")
	}
}

func TestEncodePartial(t *testing.T) {
	s := crScheme(t, 4, 2, 1)
	coded, err := s.EncodePartial(2, [][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if coded[0] != 4 || coded[1] != 6 {
		t.Fatalf("coded = %v, want [4 6]", coded)
	}
	if _, err := s.EncodePartial(2, [][]float64{{1, 2}}); err == nil {
		t.Error("expected error for wrong local gradient count")
	}
	if _, err := s.EncodePartial(9, nil); err == nil {
		t.Error("expected error for bad worker")
	}
	if _, err := s.EncodePartial(0, [][]float64{{1, 2}, {3}}); err == nil {
		t.Error("expected error for dim mismatch")
	}
}

// End-to-end algebra: the aggregated ĝ must equal the sum of the true
// per-partition gradients over exactly the recovered partition set.
func TestDecodeAndAggregateMatchesDirectSum(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	schemes := []*Scheme{
		frScheme(t, 8, 2, 1), crScheme(t, 8, 3, 2), hrScheme(t, 8, 2, 2, 2, 3), crScheme(t, 7, 2, 4),
	}
	const dim = 5
	for _, s := range schemes {
		n := s.Placement().N()
		for trial := 0; trial < 100; trial++ {
			grads := make([][]float64, n)
			for d := range grads {
				grads[d] = make([]float64, dim)
				for k := range grads[d] {
					grads[d][k] = rng.NormFloat64()
				}
			}
			coded := make([][]float64, n)
			avail := randAvail(rng, n, 0.6)
			avail.Range(func(i int) bool {
				var err error
				coded[i], err = s.Encode(i, grads)
				if err != nil {
					t.Fatal(err)
				}
				return true
			})
			ghat, parts, chosen, err := s.DecodeAndAggregate(avail, coded)
			if err != nil {
				t.Fatal(err)
			}
			if avail.Empty() {
				if ghat != nil || !chosen.Empty() {
					t.Fatal("empty availability must produce nil ĝ")
				}
				continue
			}
			if parts.Len() != chosen.Len()*s.Placement().C() {
				t.Fatalf("%v: |parts| = %d ≠ |I|·c = %d", s.Placement(), parts.Len(), chosen.Len()*s.Placement().C())
			}
			want := make([]float64, dim)
			parts.Range(func(d int) bool {
				for k := range want {
					want[k] += grads[d][k]
				}
				return true
			})
			for k := range want {
				if math.Abs(want[k]-ghat[k]) > 1e-9 {
					t.Fatalf("%v: ĝ[%d] = %v, want %v", s.Placement(), k, ghat[k], want[k])
				}
			}
		}
	}
}

func TestAggregateMissingCodedGradient(t *testing.T) {
	s := crScheme(t, 4, 2, 1)
	chosen := bitset.FromSlice([]int{1})
	if _, _, err := s.Aggregate(chosen, make([][]float64, 4)); err == nil {
		t.Error("expected error when chosen worker has nil coded gradient")
	}
	if _, _, err := s.Aggregate(bitset.FromSlice([]int{9}), make([][]float64, 4)); err == nil {
		t.Error("expected error when chosen worker is out of coded range")
	}
	coded := [][]float64{nil, {1, 2}, {3}, nil}
	if _, _, err := s.Aggregate(bitset.FromSlice([]int{1, 2}), coded); err == nil {
		t.Error("expected error for dim mismatch across chosen workers")
	}
}
