// Package isgc implements the paper's primary contribution:
// Ignore-Straggler Gradient Coding (IS-GC).
//
// In IS-GC every worker uploads the plain (all-ones) sum of the gradients
// computed on its c dataset partitions. Because all coefficients are 1, the
// master can combine coded gradients from an *arbitrary* subset W' of
// workers — the crux is choosing which of the received coded gradients to
// add so that no partition is double-counted while as many partitions as
// possible are covered. That is exactly a maximum independent set of the
// conflict graph induced on W' (Sec. V-A), and this package provides the
// linear-time exact decoders for the FR, CR, and HR placements
// (Algorithms 1, 2, and 3+4), plus recovery accounting.
package isgc

import (
	"fmt"
	"math/rand"

	"isgc/internal/bitset"
	"isgc/internal/placement"
	"isgc/internal/randsrc"
)

// Scheme couples a placement with its IS-GC decoder and a seeded RNG used
// for the randomized start choices that give every worker an equal chance
// of joining the recovered sum (the fairness property of Sec. IV).
//
// A Scheme is not safe for concurrent use; give each master goroutine its
// own Scheme (they can share the underlying Placement, which is immutable).
type Scheme struct {
	p *placement.Placement
	// src backs rng and makes the decode stream checkpointable: capturing
	// (seed, draws) and restoring it lands a resumed master on exactly the
	// tie-break the crashed one would have drawn next.
	src *randsrc.Source
	rng *rand.Rand

	// cache, when non-nil, memoizes Decode results per availability mask
	// (see cache.go for the LRU and the fairness tradeoff).
	cache      *decodeCache
	cacheHooks [2]func() // onHit, onMiss — survive cache resets

	// inc, when non-nil, repairs the previous chosen set against the mask
	// delta instead of re-solving (see incremental.go for the repair rules
	// and the proof obligations on accepted repairs).
	inc      *incrementalState
	incHooks [2]func() // onRepair, onFallback — survive re-enables

	// sum is the blocked row sum's scratch (see aggregate.go), allocated by
	// the first Aggregate over more than one block.
	sum *blockSum
}

// New returns an IS-GC scheme over the given placement. The seed fixes the
// randomized tie-breaking, making decode sequences reproducible.
func New(p *placement.Placement, seed int64) *Scheme {
	src := randsrc.New(seed)
	return &Scheme{p: p, src: src, rng: src.Rand()}
}

// RandState returns the decoder RNG's serializable position (seed and
// draws so far) — what a checkpoint stores so restore is bit-exact.
func (s *Scheme) RandState() (seed int64, draws uint64) { return s.src.State() }

// RestoreRandState repositions the decoder RNG to a checkpointed state.
// With the decode cache enabled the draw sequence additionally depends on
// cache hits, which are not checkpointed — see DESIGN.md "Durability".
func (s *Scheme) RestoreRandState(seed int64, draws uint64) { s.src.Restore(seed, draws) }

// Placement returns the underlying placement.
func (s *Scheme) Placement() *placement.Placement { return s.p }

// Decode implements the paper's Decode() function: given the set of
// available (non-straggling) workers W', it returns a maximum independent
// set I of the conflict graph G[W'] — the workers whose coded gradients the
// master should add up. The returned set is empty iff available is empty.
//
// Complexity is O(c·|W'| + c²) for CR/HR and O(|W'|) for FR, matching the
// paper's linear-time claims; optimality is property-tested against an
// exact branch-and-bound oracle.
func (s *Scheme) Decode(available *bitset.Set) *bitset.Set {
	chosen, _ := s.decodeMasked(s.clampAvailable(available), false)
	return chosen
}

// decodeMasked runs the full decode pipeline — decode-cache lookup,
// incremental repair, fresh solve — on an already-clamped mask. The
// recovered set is non-nil only when wantRecovered or when the cache
// computes it as a side effect; returned sets are the caller's to mutate.
//
// Coherence rules between the two acceleration layers: a cache hit syncs
// the incremental baseline (a later repair must start from the set the
// caller actually received, not an outdated one), and an accepted repair is
// never stored in the cache (only fresh solves are; see incremental.go).
func (s *Scheme) decodeMasked(avail *bitset.Set, wantRecovered bool) (*bitset.Set, *bitset.Set) {
	n := s.p.N()
	if avail.Empty() {
		if s.inc != nil {
			s.inc.invalidate()
		}
		return bitset.New(n), bitset.New(n)
	}
	if s.cache != nil {
		if e := s.cache.lookup(avail); e != nil {
			if s.inc != nil {
				s.inc.sync(avail, e.chosen)
				s.rebuildIncBound(avail)
			}
			return e.chosen.Clone(), e.recovered.Clone()
		}
	}
	if s.inc != nil && s.inc.valid {
		if repaired, ok := s.tryRepair(avail); ok {
			var rec *bitset.Set
			if wantRecovered {
				rec = s.p.RecoveredPartitions(repaired)
			}
			return repaired.Clone(), rec
		}
	}
	chosen := s.decode(avail)
	if s.inc != nil {
		s.inc.adopt(avail, chosen)
		s.rebuildIncBound(avail)
	}
	if s.cache != nil {
		rec := s.p.RecoveredPartitions(chosen)
		s.cache.store(avail, chosen, rec)
		return chosen.Clone(), rec.Clone()
	}
	var rec *bitset.Set
	if wantRecovered {
		rec = s.p.RecoveredPartitions(chosen)
	}
	return chosen, rec
}

// decode dispatches to the placement-specific greedy MIS walk.
func (s *Scheme) decode(avail *bitset.Set) *bitset.Set {
	switch s.p.Kind() {
	case placement.KindFR:
		return s.decodeFR(avail)
	case placement.KindCR:
		return s.decodeCR(avail)
	case placement.KindHR:
		return s.decodeHR(avail)
	default:
		panic(fmt.Sprintf("isgc: unknown placement kind %v", s.p.Kind()))
	}
}

// clampAvailable restricts the availability set to valid worker indices.
// Word-parallel (O(n/64)): this runs on every decode, so a per-bit walk
// would dominate the incremental path's cost at large n.
func (s *Scheme) clampAvailable(available *bitset.Set) *bitset.Set {
	if available == nil {
		return bitset.New(s.p.N())
	}
	return available.CloneCapped(s.p.N())
}

// Recovered maps a decoded worker set I to the set of partition indices
// whose gradients appear in ĝ = Σ_{i∈I} (coded gradient of worker i).
// When I is an independent set, |Recovered(I)| = |I|·c exactly. Like
// Decode, it ignores ids outside [0, n).
func (s *Scheme) Recovered(chosen *bitset.Set) *bitset.Set {
	return s.p.RecoveredPartitions(chosen)
}

// DecodeWithRecovered returns Decode(available) together with the set of
// partitions the chosen workers recover. With the decode cache enabled
// both sets come from one memoized entry, so the recovery mapping is not
// recomputed for repeated masks. The returned sets are the caller's to
// mutate.
func (s *Scheme) DecodeWithRecovered(available *bitset.Set) (chosen, recovered *bitset.Set) {
	return s.decodeMasked(s.clampAvailable(available), true)
}

// RecoveredFraction returns |Recovered(Decode(available))| / n — the
// fraction of dataset partitions represented in the recovered gradient.
// This is the quantity plotted in Fig. 12(a) and Fig. 13(a).
func (s *Scheme) RecoveredFraction(available *bitset.Set) float64 {
	_, recovered := s.DecodeWithRecovered(available)
	return float64(recovered.Len()) / float64(s.p.N())
}

// randomAvailable picks a uniformly random element of avail (non-empty).
// Select skips words by popcount, so the pick is O(n/64); the single
// rng.Intn draw keeps decode sequences bit-identical to the per-bit walk
// this replaced.
func (s *Scheme) randomAvailable(avail *bitset.Set) int {
	return avail.Select(s.rng.Intn(avail.Len()))
}
