package isgc

import (
	"testing"

	"isgc/internal/bitset"
)

// maskSet builds the availability set for the n-worker mask bits.
func maskSet(mask uint32, n int) *bitset.Set {
	s := bitset.New(n)
	for v := 0; v < n; v++ {
		if mask&(1<<uint(v)) != 0 {
			s.Add(v)
		}
	}
	return s
}

// TestDecodeCacheMatchesFresh enumerates every availability mask of
// several small schemes. Pass 1 compares the caching scheme against an
// identically seeded cache-less twin: each mask is seen for the first
// time, so no rng draw is skipped and the results must be bit-identical.
// Pass 2 replays every mask against the recorded pass-1 answers: now
// every lookup is a hit and must return exactly the memoized set.
func TestDecodeCacheMatchesFresh(t *testing.T) {
	schemes := []struct {
		name          string
		cached, fresh *Scheme
	}{
		{"FR(12,3)", frScheme(t, 12, 3, 42), frScheme(t, 12, 3, 42)},
		{"CR(9,3)", crScheme(t, 9, 3, 42), crScheme(t, 9, 3, 42)},
		{"CR(16,4)", crScheme(t, 16, 4, 7), crScheme(t, 16, 4, 7)},
		{"HR(12,2,1,4)", hrScheme(t, 12, 2, 1, 4, 13), hrScheme(t, 12, 2, 1, 4, 13)},
	}
	for _, tc := range schemes {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.cached.Placement().N()
			masks := 1 << uint(n)
			tc.cached.EnableDecodeCache(masks)
			recorded := make([]*bitset.Set, masks)
			for mask := 0; mask < masks; mask++ {
				avail := maskSet(uint32(mask), n)
				got := tc.cached.Decode(avail)
				want := tc.fresh.Decode(avail)
				if !got.Equal(want) {
					t.Fatalf("mask %b: cached-first %v ≠ fresh %v", mask, got, want)
				}
				recorded[mask] = got
			}
			for mask := 0; mask < masks; mask++ {
				avail := maskSet(uint32(mask), n)
				got := tc.cached.Decode(avail)
				if !got.Equal(recorded[mask]) {
					t.Fatalf("mask %b: replay %v ≠ memoized %v", mask, got, recorded[mask])
				}
				chosen, recovered := tc.cached.DecodeWithRecovered(avail)
				if !chosen.Equal(recorded[mask]) {
					t.Fatalf("mask %b: DecodeWithRecovered chosen %v ≠ memoized %v", mask, chosen, recorded[mask])
				}
				if want := tc.cached.Recovered(chosen); !recovered.Equal(want) {
					t.Fatalf("mask %b: recovered %v ≠ %v", mask, recovered, want)
				}
			}
			hits, misses := tc.cached.DecodeCacheStats()
			// Pass 1: all misses except the empty mask, which short-circuits
			// before the cache. Pass 2: 2 hits per non-empty mask.
			if wantMisses := uint64(masks - 1); misses != wantMisses {
				t.Errorf("misses = %d, want %d", misses, wantMisses)
			}
			if wantHits := uint64(2 * (masks - 1)); hits != wantHits {
				t.Errorf("hits = %d, want %d", hits, wantHits)
			}
		})
	}
}

// TestDecodeCacheEviction exercises the LRU with a capacity far below the
// mask population. Recomputed-after-eviction results must still satisfy
// the decoder contract with the cardinality of a maximum independent set
// — the one decode property that is deterministic across rng states.
func TestDecodeCacheEviction(t *testing.T) {
	s := crScheme(t, 10, 3, 3)
	oracle := crScheme(t, 10, 3, 99)
	s.EnableDecodeCache(4)
	n := s.Placement().N()
	cg := s.Placement().ConflictGraph()
	// Cycle 16 masks 3 times through a 4-entry cache so every mask is
	// evicted and recomputed repeatedly.
	for round := 0; round < 3; round++ {
		for mask := uint32(1); mask <= 16; mask++ {
			avail := maskSet(mask*37%1024, n)
			chosen := s.Decode(avail)
			if !chosen.SubsetOf(avail) {
				t.Fatalf("round %d mask %b: chosen %v ⊄ avail %v", round, mask, chosen, avail)
			}
			if !cg.IsIndependent(chosen) {
				t.Fatalf("round %d mask %b: chosen %v not independent", round, mask, chosen)
			}
			if want := oracle.Decode(avail).Len(); chosen.Len() != want {
				t.Fatalf("round %d mask %b: |chosen| = %d, want maximum %d", round, mask, chosen.Len(), want)
			}
		}
	}
	if hits, misses := s.DecodeCacheStats(); hits+misses == 0 || misses < 16 {
		t.Errorf("implausible stats after eviction churn: hits=%d misses=%d", hits, misses)
	}
}

// TestDecodeCacheHooks checks the metrics glue and that returned sets are
// clones (mutating one must not corrupt the cache).
func TestDecodeCacheHooks(t *testing.T) {
	s := frScheme(t, 6, 2, 1)
	var hits, misses int
	s.SetDecodeCacheHooks(func() { hits++ }, func() { misses++ })
	s.EnableDecodeCache(8)
	avail := maskSet(0b111011, 6)
	first := s.Decode(avail)
	first.Add(63) // vandalize the returned clone
	second := s.Decode(avail)
	if second.Contains(63) {
		t.Fatal("cache returned an aliased set: caller mutation leaked into the cache")
	}
	if hits != 1 || misses != 1 {
		t.Fatalf("hooks saw hits=%d misses=%d, want 1 and 1", hits, misses)
	}
}
