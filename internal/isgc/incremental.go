package isgc

import (
	"sync/atomic"

	"isgc/internal/bitset"
	"isgc/internal/placement"
)

// Incremental decode.
//
// In a long-running fleet the availability mask drifts by a worker or two
// per step, yet Decode re-solves the maximum-independent-set from scratch
// every time. The incremental path instead repairs the previous step's
// chosen set against the mask delta:
//
//   - a departed chosen worker triggers a local re-expansion (FR: refill
//     the group; CR: one resync walk anchored at the smallest surviving
//     chosen vertex; HR: refill the group subject to adjacent-group
//     conflicts),
//   - a returned worker is admitted only if it conflicts with no current
//     chosen worker (an O(n/64) word-parallel probe),
//   - the repaired set is accepted only when it is *provably* maximum:
//     its size must reach min(structural upper bound on α(G[W']),
//     |previous chosen| + |returned|). Any independent set is bounded by
//     both quantities, so meeting them certifies optimality. Otherwise the
//     decoder falls back to the fresh solve, which is maximum by
//     Theorems 3/8/9.
//
// FR needs no bound check: the repair reconstructs "one worker per group
// with availability", which is exactly the maximum.
//
// Cache coherence: a decode-cache hit overwrites ("syncs") the incremental
// state so a later repair never starts from an outdated baseline, and an
// accepted repair is never stored in the LRU — only fresh solves, whose
// randomized tie-breaking the cache is documented to freeze, get cached.
//
// Like the decode cache, repairs freeze the randomized tie-breaking of
// Algorithms 1–3 while the mask drifts, trading the per-worker fairness
// rotation of Sec. IV for latency; hence the path is opt-in.

// incrementalState carries the previous step's mask and chosen set plus
// repair counters. Counters are atomics only so metrics scrapes may read
// them from other goroutines; the state itself shares Scheme's
// single-goroutine contract.
type incrementalState struct {
	valid  bool
	prev   *bitset.Set // previous clamped availability mask
	chosen *bitset.Set // maximum independent set for prev

	// Incrementally maintained structural bound on α: the number of
	// nonempty ranges of prev (ranges are the length-c windows for CR, the
	// groups for FR/HR). A mask delta updates it with one range probe per
	// touched range, where recomputing it is a pass over all n/64 words.
	nonempty int

	repairs    atomic.Uint64
	fallbacks  atomic.Uint64
	fullSolves atomic.Uint64
	cacheSyncs atomic.Uint64

	onRepair   func()
	onFallback func()
}

// IncrementalStats is a snapshot of the incremental decoder's counters.
type IncrementalStats struct {
	// Repairs counts decodes served by repairing the previous chosen set
	// (including the equal-mask fast path).
	Repairs uint64
	// Fallbacks counts repair attempts whose result could not be certified
	// maximum, forcing a fresh solve.
	Fallbacks uint64
	// FullSolves counts fresh solves run while the incremental path was
	// enabled (cold starts and fallbacks alike).
	FullSolves uint64
	// CacheSyncs counts decode-cache hits that overwrote the incremental
	// baseline, keeping the two paths coherent.
	CacheSyncs uint64
}

// EnableIncrementalDecode turns on incremental repair of the chosen set
// across consecutive decodes. Calling it again resets the repair state and
// counters. See the package comment above for the fairness tradeoff.
func (s *Scheme) EnableIncrementalDecode() {
	st := &incrementalState{}
	st.onRepair, st.onFallback = s.incHooks[0], s.incHooks[1]
	s.inc = st
}

// IncrementalDecodeStats returns the cumulative counters since the
// incremental path was (last) enabled, or zeros when it is disabled.
func (s *Scheme) IncrementalDecodeStats() IncrementalStats {
	if s.inc == nil {
		return IncrementalStats{}
	}
	return IncrementalStats{
		Repairs:    s.inc.repairs.Load(),
		Fallbacks:  s.inc.fallbacks.Load(),
		FullSolves: s.inc.fullSolves.Load(),
		CacheSyncs: s.inc.cacheSyncs.Load(),
	}
}

// SetIncrementalHooks registers callbacks fired on every accepted repair
// and every fallback — the glue for external metrics counters. Either may
// be nil. The hooks survive EnableIncrementalDecode resets.
func (s *Scheme) SetIncrementalHooks(onRepair, onFallback func()) {
	s.incHooks = [2]func(){onRepair, onFallback}
	if s.inc != nil {
		s.inc.onRepair, s.inc.onFallback = onRepair, onFallback
	}
}

func (st *incrementalState) invalidate() {
	st.valid = false
	st.prev, st.chosen = nil, nil
	st.nonempty = 0
}

// applyBoundDelta folds the delta from st.prev to avail into the maintained
// count of nonempty ranges: a range empties when avail has nothing left in
// a range a departure touched, and fills when st.prev had nothing in a
// range a return touched. Delta elements come in ascending order, so each
// touched range is probed once.
func (s *Scheme) applyBoundDelta(avail, departed, returned *bitset.Set) {
	size := s.boundRange()
	flips := func(delta, other *bitset.Set) int {
		k, last := 0, -1
		delta.Range(func(w int) bool {
			if r := w / size; r != last {
				last = r
				if !other.AnyInRange(r*size, (r+1)*size) {
					k++
				}
			}
			return true
		})
		return k
	}
	s.inc.nonempty += flips(returned, s.inc.prev) - flips(departed, avail)
}

// sync overwrites the baseline from a decode-cache hit so the next repair
// starts from the entry the caller actually received.
func (st *incrementalState) sync(avail, chosen *bitset.Set) {
	st.prev, st.chosen = avail.Clone(), chosen.Clone()
	st.valid = true
	st.cacheSyncs.Add(1)
}

// adopt records a fresh solve as the new baseline.
func (st *incrementalState) adopt(avail, chosen *bitset.Set) {
	st.prev, st.chosen = avail.Clone(), chosen.Clone()
	st.valid = true
	st.fullSolves.Add(1)
}

// tryRepair attempts to repair the previous chosen set for the new mask.
// On success the returned set is state-owned (callers must clone), proven
// maximum, and adopted as the new baseline. On failure (false) the caller
// must run a fresh solve; the fallback has already been counted.
func (s *Scheme) tryRepair(avail *bitset.Set) (*bitset.Set, bool) {
	st := s.inc
	if avail.Equal(st.prev) {
		st.repairs.Add(1)
		if st.onRepair != nil {
			st.onRepair()
		}
		return st.chosen, true
	}
	departed := st.prev.AndNot(avail)
	returned := avail.AndNot(st.prev)
	s.applyBoundDelta(avail, departed, returned)
	oldLen := st.chosen.Len()

	var repaired *bitset.Set
	exact := false
	switch s.p.Kind() {
	case placement.KindFR:
		repaired = s.repairFR(avail, returned)
		exact = true // reconstructs one-per-available-group, the exact max
	case placement.KindCR:
		repaired = s.repairCR(avail, returned)
	case placement.KindHR:
		repaired = s.repairHR(avail, returned)
	}

	if repaired != nil && !exact {
		bound := oldLen + returned.Len() // α grows ≤1 per added vertex
		if sb := s.incBound(); sb < bound {
			bound = sb
		}
		if repaired.Len() < bound {
			repaired = nil
		}
	}
	if repaired == nil {
		st.fallbacks.Add(1)
		if st.onFallback != nil {
			st.onFallback()
		}
		return nil, false
	}
	st.prev, st.chosen = avail.Clone(), repaired
	st.valid = true
	st.repairs.Add(1)
	if st.onRepair != nil {
		st.onRepair()
	}
	return repaired, true
}

// incBound returns the maintained structural upper bound on α(G[prev]) in
// O(1). It equals freshBound(st.prev) by construction: rebuildIncBound
// seeds the count on every adopt/sync and applyBoundDelta keeps it current
// across repairs.
func (s *Scheme) incBound() int { return s.capBound(s.inc.nonempty) }

// rebuildIncBound recounts the nonempty ranges from scratch — used
// whenever the baseline is replaced wholesale (fresh solve or decode-cache
// sync) rather than delta-repaired.
func (s *Scheme) rebuildIncBound(avail *bitset.Set) {
	s.inc.nonempty = avail.OccupiedBlocks(s.boundRange())
}

// freshBound returns a structural upper bound on α(G[avail]) in one
// word-parallel pass (avail must hold no id ≥ n): FR/HR count groups with
// at least one available worker (each group is a clique); CR takes
// min(⌊n/c⌋, number of aligned length-c windows holding an available
// worker) — two chosen in one window would sit at circular distance < c.
func (s *Scheme) freshBound(avail *bitset.Set) int {
	return s.capBound(avail.OccupiedBlocks(s.boundRange()))
}

// boundRange is the width of the aligned ranges the structural bound
// counts: a length-c window for CR, a group for FR/HR.
func (s *Scheme) boundRange() int {
	if s.p.Kind() == placement.KindCR {
		return s.p.C()
	}
	return s.p.GroupSize()
}

// capBound turns a count of nonempty ranges into the structural bound:
// for CR at most ⌊n/c⌋ workers fit at pairwise circular distance ≥ c.
func (s *Scheme) capBound(nonempty int) int {
	if s.p.Kind() == placement.KindCR {
		return min(nonempty, s.p.N()/s.p.C())
	}
	return nonempty
}

// repairFR rebuilds "one chosen worker per group with availability": drop
// departed chosen workers (refilling their group from the mask) and admit
// returned workers into empty groups.
func (s *Scheme) repairFR(avail, returned *bitset.Set) *bitset.Set {
	c := s.p.C()
	out := s.inc.chosen.Clone()
	s.inc.chosen.AndNot(avail).Range(func(w int) bool {
		out.Remove(w)
		g := w / c
		if v := avail.NextInRange(g*c, (g+1)*c); v >= 0 {
			out.Add(v)
		}
		return true
	})
	returned.Range(func(v int) bool {
		g := v / c
		if !out.AnyInRange(g*c, (g+1)*c) {
			out.Add(v)
		}
		return true
	})
	return out
}

// repairCR repairs a circulant chosen set. With no chosen departures it
// admits each returned worker whose (2c−1)-wide conflict window holds no
// chosen vertex; a chosen departure instead triggers one resync walk
// anchored at the smallest surviving chosen vertex (nil if none survive —
// the caller falls back).
func (s *Scheme) repairCR(avail, returned *bitset.Set) *bitset.Set {
	n, c := s.p.N(), s.p.C()
	if s.inc.chosen.AndNot(avail).Empty() {
		out := s.inc.chosen.Clone()
		returned.Range(func(v int) bool {
			if !anyInCircRange(out, n, v-c+1, v+c) {
				out.Add(v)
			}
			return true
		})
		return out
	}
	surviving := s.inc.chosen.Clone()
	surviving.IntersectWith(avail)
	anchor := surviving.Min()
	if anchor < 0 {
		return nil
	}
	return s.greedyWalkCR(avail, anchor)
}

// repairHR repairs a hybrid chosen set: departed chosen workers are
// replaced by a conflict-free available worker of the same group when one
// exists, then returned workers are admitted if conflict-free. Conflicts
// in HR are confined to a worker's own group (a clique) and the two
// neighboring groups (the c2 spill-over spans at most one group), so each
// probe touches three group ranges.
func (s *Scheme) repairHR(avail, returned *bitset.Set) *bitset.Set {
	n0 := s.p.GroupSize()
	out := s.inc.chosen.Clone()
	s.inc.chosen.AndNot(avail).Range(func(w int) bool {
		out.Remove(w)
		g := w / n0
		for x := avail.NextInRange(g*n0, (g+1)*n0); x >= 0; x = avail.NextInRange(x+1, (g+1)*n0) {
			if !s.hrConflictsChosen(out, x) {
				out.Add(x)
				break
			}
		}
		return true
	})
	returned.Range(func(v int) bool {
		if !s.hrConflictsChosen(out, v) {
			out.Add(v)
		}
		return true
	})
	return out
}

// hrConflictsChosen reports whether v conflicts with any chosen worker,
// scanning only v's own and neighboring groups.
func (s *Scheme) hrConflictsChosen(chosen *bitset.Set, v int) bool {
	n0 := s.p.GroupSize()
	gs := s.p.Groups()
	g := v / n0
	for d := -1; d <= 1; d++ {
		ag := ((g+d)%gs + gs) % gs
		lo, hi := ag*n0, (ag+1)*n0
		for u := chosen.NextInRange(lo, hi); u >= 0; u = chosen.NextInRange(u+1, hi) {
			if u != v && s.p.Conflicts(u, v) {
				return true
			}
		}
	}
	return false
}

// anyInCircRange reports whether set holds an element of the circular
// interval [lo, hi) on Z_n; lo may be negative and hi may exceed n.
func anyInCircRange(set *bitset.Set, n, lo, hi int) bool {
	span := hi - lo
	if span <= 0 {
		return false
	}
	if span >= n {
		return !set.Empty()
	}
	lo = ((lo % n) + n) % n
	end := lo + span
	if end <= n {
		return set.AnyInRange(lo, end)
	}
	return set.AnyInRange(lo, n) || set.AnyInRange(0, end-n)
}
