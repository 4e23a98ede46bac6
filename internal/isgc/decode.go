package isgc

import (
	"isgc/internal/bitset"
)

// decodeFR implements Algorithm 1: in FR the conflict graph is a disjoint
// union of per-group cliques, so a maximum independent set simply picks one
// available worker from every group that has one. The pick within a group
// is uniform random so every worker — and hence every partition — has an
// equal chance of joining ĝ. O(|W'|).
func (s *Scheme) decodeFR(avail *bitset.Set) *bitset.Set {
	n, c := s.p.N(), s.p.C()
	out := bitset.New(n)
	// Reservoir-sample one available worker per group in a single pass.
	chosen := make([]int, n/c)
	seen := make([]int, n/c)
	for i := range chosen {
		chosen[i] = -1
	}
	avail.Range(func(v int) bool {
		g := v / c
		seen[g]++
		if s.rng.Intn(seen[g]) == 0 {
			chosen[g] = v
		}
		return true
	})
	for _, v := range chosen {
		if v >= 0 {
			out.Add(v)
		}
	}
	return out
}

// decodeCR implements Algorithm 2: a greedy clockwise walk over the worker
// circle. By Theorem 1, workers u and v conflict iff their circular
// distance d(u, v) < c, so an independent set is a set of available workers
// with pairwise circular distance ≥ c. The greedy walk from a fixed start
// accepts the earliest available vertex at distance ≥ c from the previously
// accepted vertex and ≥ c from the start (the wrap-around constraint);
// consecutive-gap arithmetic then guarantees full pairwise independence.
//
// A single start is only guaranteed maximal (Theorem 2); per Theorem 3,
// among the ≤ c starts in the window W' ∩ {u, …, u+c-1} for any available
// u, at least one walk yields a maximum independent set. The anchor u is
// random so gradients on each worker join ĝ with equal probability.
//
// The walks stop at the first one whose size reaches freshBound, an upper
// bound on α: a later walk replaces the best only when strictly larger, so
// none could, and u is drawn before the first walk. The result and the RNG
// position are those of running all ≤ c walks; on a dense mask it usually
// takes one (TestDecodeMatchesEveryWalk pins the equivalence).
func (s *Scheme) decodeCR(avail *bitset.Set) *bitset.Set {
	n, c := s.p.N(), s.p.C()
	u := s.randomAvailable(avail)
	bound := s.freshBound(avail)
	var best *bitset.Set // set by the walk from u itself, which is available
	bestLen := 0
	for off := 0; off < c && bestLen < bound; off++ {
		start := (u + off) % n
		if !avail.Contains(start) {
			continue
		}
		if cur := s.greedyWalkCR(avail, start); cur.Len() > bestLen {
			best, bestLen = cur, cur.Len()
		}
	}
	return best
}

// greedyWalkCR performs one greedy pass of Algorithm 2 from start.
//
// Rather than test every vertex, it jumps over runs of available vertices
// with word-parallel bit scans. Working in offset space relative to start
// (the accepted offsets o satisfy CircDist(o, offlast) ≥ c and
// CircDist(o, 0) ≥ c), the admissible region after accepting offlast is the
// single contiguous interval [offlast+c, n−c]: the lower end comes from the
// distance to the last accepted vertex, the upper end from the wrap-around
// distance back to start. The earliest available offset o in that interval
// is accepted, and so, while the run of available offsets [o, e) lasts, is
// every c-th offset after it: each is the earliest admissible one after its
// predecessor. So one pair of scans — NextInRange for o, NextAbsent for e —
// accepts o, o+c, o+2c, … < e, and the walk costs O(runs + n/64) words, not
// a probe per accepted vertex. It is the linear scan's set bit for bit
// (TestGreedyWalkCRMatchesLinearReference, against it and the
// probe-per-accept walk this replaced).
func (s *Scheme) greedyWalkCR(avail *bitset.Set, start int) *bitset.Set {
	n, c := s.p.N(), s.p.C()
	cur := bitset.New(n)
	cur.Add(start)
	hi := n - c + 1 // exclusive offset bound
	for lo := c; lo < hi; {
		o := nextAvailOffset(avail, n, start, lo, hi)
		if o < 0 {
			break
		}
		e := nextAbsentOffset(avail, n, start, o+1, hi)
		for ; o < e; o += c {
			v := start + o
			if v >= n {
				v -= n
			}
			cur.Add(v)
		}
		lo = o // the last accepted offset + c
	}
	return cur
}

// nextAvailOffset returns the smallest offset o in [lo, hi) — offsets taken
// clockwise from start, 0 < lo ≤ o < hi ≤ n — whose vertex (start+o) mod n
// is available, or -1. The circular interval unwraps into at most two
// linear NextInRange probes, each O(span/64) words.
func nextAvailOffset(avail *bitset.Set, n, start, lo, hi int) int {
	a, b := start+lo, start+hi
	if b <= n {
		if v := avail.NextInRange(a, b); v >= 0 {
			return v - start
		}
		return -1
	}
	if a < n {
		if v := avail.NextInRange(a, n); v >= 0 {
			return v - start
		}
		a = n
	}
	if v := avail.NextInRange(a-n, b-n); v >= 0 {
		return v - start + n
	}
	return -1
}

// nextAbsentOffset is nextAvailOffset's complement: the smallest offset in
// [lo, hi) whose vertex is unavailable, or hi when every one is available,
// in at most two linear NextAbsent probes (0 < lo ≤ hi ≤ n).
func nextAbsentOffset(avail *bitset.Set, n, start, lo, hi int) int {
	a, b := start+lo, start+hi
	if a < n {
		if v := avail.NextAbsent(a, min(b, n)); v >= 0 {
			return v - start
		}
		a = n
	}
	if b > n {
		if v := avail.NextAbsent(a-n, b-n); v >= 0 {
			return v - start + n
		}
	}
	return hi
}

// decodeHR implements Algorithm 3 (+ the CONFLICT predicate of Algorithm 4,
// realized here as O(1) lookups in the conflict predicate, which tests
// prove identical to the Alg. 4 formula): pick a random group with at
// least one available worker, run the greedy clockwise walk from every
// available worker of that group, and keep the largest result.
//
// Correctness of a walk (Theorem 9): each group is a clique, so a single
// clockwise pass accepts at most one worker per group (same-group revisits
// conflict with either the last accepted vertex or the start); conflicts
// only exist within a group or between clockwise-neighboring groups, so
// checking the last accepted vertex and the start suffices for full
// pairwise independence.
//
// Anchor escalation: the anchor-group guarantee ("some maximum independent
// set intersects the start group's available workers") can fail on sparse
// masks where the anchor group's only available workers are dominated —
// e.g. HR(12, c1=1, c2=3, g=3) with W' = {3, 6, 8}: worker 6 conflicts
// with both 3 and 8, so no maximum set touches group 1, and walks anchored
// there top out one short of α (a latent miss FuzzIncrementalDecode
// surfaced). When the anchor group's best walk falls short of the
// structural upper bound on α, the decoder escalates to walking from every
// other group's available workers, so some start lands inside a maximum
// set. Escalation is rare — on dense masks the anchor walks reach the
// bound — so the expected cost stays the paper's O(c·|W'| + c²).
//
// The same bound ends the anchor group's walks early: once one reaches it
// no later walk can be strictly larger, so, as in decodeCR, the result is
// that of walking from every start, usually after the first.
func (s *Scheme) decodeHR(avail *bitset.Set) *bitset.Set {
	n := s.p.N()
	n0 := s.p.GroupSize()
	u := s.randomAvailable(avail)
	anchorBase := (u / n0) * n0
	bound := s.freshBound(avail)
	best := s.walkHRGroup(avail, anchorBase, nil, bound) // u's group: never nil
	for base := 0; base < n && best.Len() < bound; base += n0 {
		if base != anchorBase {
			best = s.walkHRGroup(avail, base, best, bound)
		}
	}
	return best
}

// walkHRGroup runs the Alg. 3 greedy walk from the available workers of the
// group starting at base, in order, returning the largest of those walks
// and best (nil counts as empty). It stops once the best reaches bound, an
// upper bound on α that no later walk can exceed.
func (s *Scheme) walkHRGroup(avail *bitset.Set, base int, best *bitset.Set, bound int) *bitset.Set {
	n0 := s.p.GroupSize()
	bestLen := 0
	if best != nil {
		bestLen = best.Len()
	}
	for start := avail.NextInRange(base, base+n0); start >= 0 && bestLen < bound; start = avail.NextInRange(start+1, base+n0) {
		if cur := s.greedyWalkConflict(avail, start); cur.Len() > bestLen {
			best, bestLen = cur, cur.Len()
		}
	}
	return best
}

// greedyWalkConflict performs one greedy clockwise pass accepting vertices
// that do not conflict with the previously accepted vertex or the start.
func (s *Scheme) greedyWalkConflict(avail *bitset.Set, start int) *bitset.Set {
	n := s.p.N()
	cur := bitset.New(n)
	cur.Add(start)
	last := start
	for off := 1; off < n; off++ {
		v := (start + off) % n
		if !avail.Contains(v) {
			continue
		}
		if !s.p.Conflicts(last, v) && !s.p.Conflicts(v, start) {
			cur.Add(v)
			last = v
		}
	}
	return cur
}
