package isgc

import (
	"testing"

	"isgc/internal/bitset"
	"isgc/internal/graph"
	"isgc/internal/placement"
)

// FuzzDecodeCR drives the CR decoder with arbitrary parameters and
// availability masks (the seeds include long runs of available workers), asserting the full decoder contract: the chosen set
// is an available independent set whose size matches the exact
// independence number, and it and the RNG position equal those of the
// every-walk reference decoder on a twin scheme.
func FuzzDecodeCR(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(0b1010), int64(1))
	f.Add(uint8(7), uint8(3), uint16(0b1011011), int64(2))
	f.Add(uint8(12), uint8(5), uint16(0xFFF), int64(3))
	// Long runs of available workers, at n = 15 unless noted: the full
	// circle (c = 2); one run 9…14, 0…5 wrapping past n−1 (c = 3); runs
	// longer than c on either side of a hole (c = 4); and at n = 14, c = 13,
	// every worker but 0.
	f.Add(uint8(13), uint8(1), uint16(0x7FFF), int64(4))
	f.Add(uint8(13), uint8(2), uint16(0x7E3F), int64(5))
	f.Add(uint8(13), uint8(3), uint16(0x7F7F), int64(6))
	f.Add(uint8(12), uint8(12), uint16(0x3FFE), int64(7))
	f.Fuzz(func(t *testing.T, nRaw, cRaw uint8, mask uint16, seed int64) {
		n := int(nRaw%14) + 2 // 2..15, keeps the oracle fast
		c := int(cRaw)%n + 1  // 1..n
		p, err := placement.CR(n, c)
		if err != nil {
			t.Fatalf("CR(%d,%d) must be constructible: %v", n, c, err)
		}
		avail := bitset.New(n)
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				avail.Add(v)
			}
		}
		chosen := decodeTwins(t, New(p, seed), New(p, seed), avail)
		if !chosen.SubsetOf(avail) {
			t.Fatalf("chosen %v ⊄ available %v", chosen, avail)
		}
		if !p.ConflictGraph().IsIndependent(chosen) {
			t.Fatalf("chosen %v not independent in CR(%d,%d)", chosen, n, c)
		}
		if want := graph.IndependenceNumber(p.ConflictGraph(), avail); chosen.Len() != want {
			t.Fatalf("CR(%d,%d) W'=%v: decode %d ≠ α %d", n, c, avail, chosen.Len(), want)
		}
	})
}

// FuzzDecodeHR does the same for HR over fuzzer-chosen (possibly invalid)
// parameters: invalid combinations must be rejected by the constructor,
// valid ones must decode optimally and as the every-walk reference does.
func FuzzDecodeHR(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(2), uint8(2), uint16(0xAB), int64(1))
	f.Add(uint8(3), uint8(2), uint8(2), uint8(2), uint16(0x5D), int64(2))
	f.Add(uint8(1), uint8(3), uint8(3), uint8(3), uint16(0x1FF), int64(3))
	f.Fuzz(func(t *testing.T, c1Raw, c2Raw, n0Raw, gRaw uint8, mask uint16, seed int64) {
		c1 := int(c1Raw % 5)
		c2 := int(c2Raw % 5)
		n0 := int(n0Raw%5) + 1
		g := int(gRaw%4) + 1
		n := n0 * g
		if n > 16 {
			return
		}
		p, err := placement.HR(n, c1, c2, g)
		if err != nil {
			return // invalid parameters: rejection is the correct behavior
		}
		avail := bitset.New(n)
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				avail.Add(v)
			}
		}
		chosen := decodeTwins(t, New(p, seed), New(p, seed), avail)
		if !chosen.SubsetOf(avail) || !p.ConflictGraph().IsIndependent(chosen) {
			t.Fatalf("%v: bad decode %v for W'=%v", p, chosen, avail)
		}
		if want := graph.IndependenceNumber(p.ConflictGraph(), avail); chosen.Len() != want {
			t.Fatalf("%v W'=%v: decode %d ≠ α %d", p, avail, chosen.Len(), want)
		}
	})
}

// FuzzIncrementalDecode drives the incremental repair path with arbitrary
// placements, base masks, and mask deltas, asserting every repaired result
// is an available independent set whose size equals the exact independence
// number — i.e. indistinguishable from a fresh solve. Seeds are drawn from
// the golden exhaustive placements of exhaustive_test.go.
func FuzzIncrementalDecode(f *testing.F) {
	// kind: 0 → FR, 1 → CR, 2 → HR (mirrors exhaustivePlacements coverage).
	f.Add(uint8(0), uint8(8), uint8(2), uint8(0), uint16(0xFF), uint16(0x08), uint16(0x11), int64(1))
	f.Add(uint8(1), uint8(10), uint8(3), uint8(0), uint16(0x3B7), uint16(0x101), uint16(0x040), int64(2))
	f.Add(uint8(2), uint8(12), uint8(2), uint8(2), uint16(0xFFF), uint16(0x021), uint16(0x400), int64(3))
	f.Add(uint8(1), uint8(5), uint8(1), uint8(0), uint16(0x1F), uint16(0x02), uint16(0x02), int64(4))
	f.Fuzz(func(t *testing.T, kind, nRaw, aRaw, bRaw uint8, mask, delta1, delta2 uint16, seed int64) {
		n := int(nRaw%14) + 2 // 2..15 keeps the oracle fast
		var p *placement.Placement
		var err error
		switch kind % 3 {
		case 0:
			c := int(aRaw)%n + 1
			if n%c != 0 {
				return
			}
			p, err = placement.FR(n, c)
		case 1:
			p, err = placement.CR(n, int(aRaw)%n+1)
		case 2:
			c1, c2 := int(aRaw%5), int(bRaw%5)
			g := 1 + int(seed&3)
			if n%g != 0 {
				return
			}
			p, err = placement.HR(n, c1, c2, g)
		}
		if err != nil {
			return // invalid parameters: rejection is the correct behavior
		}
		s := New(p, seed)
		s.EnableIncrementalDecode()
		toSet := func(m uint16) *bitset.Set {
			avail := bitset.New(n)
			for v := 0; v < n; v++ {
				if m&(1<<v) != 0 {
					avail.Add(v)
				}
			}
			return avail
		}
		g := p.ConflictGraph()
		// Walk: base mask, two deltas, then the base again (return path).
		for _, m := range []uint16{mask, mask ^ delta1, mask ^ delta1 ^ delta2, mask} {
			avail := toSet(m)
			chosen := s.Decode(avail)
			if !chosen.SubsetOf(avail) {
				t.Fatalf("%v m=%04x: chosen %v ⊄ %v", p, m, chosen, avail)
			}
			if !g.IsIndependent(chosen) {
				t.Fatalf("%v m=%04x: chosen %v not independent", p, m, chosen)
			}
			if want := graph.IndependenceNumber(g, avail); chosen.Len() != want {
				t.Fatalf("%v m=%04x: incremental |I|=%d ≠ α=%d", p, m, chosen.Len(), want)
			}
		}
	})
}

// FuzzEncodeAggregate checks the end-to-end algebra under fuzzed gradient
// values: ĝ must equal the direct sum over recovered partitions.
func FuzzEncodeAggregate(f *testing.F) {
	f.Add(uint16(0b1010), 1.5, -2.0, int64(7))
	f.Fuzz(func(t *testing.T, mask uint16, x, y float64, seed int64) {
		if x != x || y != y || x > 1e100 || x < -1e100 || y > 1e100 || y < -1e100 {
			return // NaN/huge values make exact comparison meaningless
		}
		p, err := placement.CR(6, 2)
		if err != nil {
			t.Fatal(err)
		}
		s := New(p, seed)
		grads := make([][]float64, 6)
		for d := range grads {
			grads[d] = []float64{x * float64(d), y + float64(d)}
		}
		coded := make([][]float64, 6)
		avail := bitset.New(6)
		for v := 0; v < 6; v++ {
			if mask&(1<<v) != 0 {
				avail.Add(v)
				coded[v], err = s.Encode(v, grads)
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		ghat, parts, _, err := s.DecodeAndAggregate(avail, coded)
		if err != nil {
			t.Fatal(err)
		}
		if avail.Empty() {
			return
		}
		want := []float64{0, 0}
		parts.Range(func(d int) bool {
			want[0] += grads[d][0]
			want[1] += grads[d][1]
			return true
		})
		scale := 1.0
		for _, v := range want {
			if av := abs(v); av > scale {
				scale = av
			}
		}
		if abs(ghat[0]-want[0]) > 1e-9*scale || abs(ghat[1]-want[1]) > 1e-9*scale {
			t.Fatalf("ĝ = %v, want %v", ghat, want)
		}
	})
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
