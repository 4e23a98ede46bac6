// Package isgc is the public API of this repository: an implementation of
// Ignore-Straggler Gradient Coding (IS-GC) from "On Arbitrary Ignorance of
// Stragglers with Gradient Coding" (Su, Sukhnandan, Li — ICDCS 2023).
//
// IS-GC lets a distributed-SGD master recover as much of the full gradient
// as possible from an *arbitrary* subset of workers: every worker uploads
// the plain sum of the gradients on its c dataset partitions, and the
// master selects a maximum set of mutually non-conflicting workers (a
// maximum independent set of the conflict graph restricted to the
// available workers) whose coded gradients it adds up.
//
// The package exposes the three placement schemes of the paper — FR
// (fractional repetition), CR (cyclic repetition), and HR (hybrid
// repetition, which generalizes both) — with their linear-time exact
// decoders. Worker sets use plain []int at this boundary for ease of use.
//
// For end-to-end training, straggler simulation, the classic-GC baseline,
// and the experiment harness reproducing the paper's figures, see the
// internal packages (engine, cluster, experiments) and the binaries in
// cmd/; examples/ shows complete programs.
package isgc

import (
	"fmt"

	"isgc/internal/analysis"
	"isgc/internal/bitset"
	core "isgc/internal/isgc"
	"isgc/internal/placement"
)

// Scheme is an IS-GC coding scheme: a dataset placement plus its decoder.
// Create one with NewFR, NewCR, or NewHR. A Scheme is not safe for
// concurrent use; the underlying placement is immutable and cheap to wrap
// repeatedly with different seeds.
type Scheme struct {
	inner *core.Scheme
}

// NewFR builds an IS-GC scheme over fractional repetition FR(n, c):
// workers are divided into n/c groups, every worker in a group stores the
// same c partitions. Requires c | n.
func NewFR(n, c int, seed int64) (*Scheme, error) {
	p, err := placement.FR(n, c)
	if err != nil {
		return nil, err
	}
	return &Scheme{inner: core.New(p, seed)}, nil
}

// NewCR builds an IS-GC scheme over cyclic repetition CR(n, c): worker i
// stores partitions {i, …, i+c-1} mod n. Any 1 ≤ c ≤ n works.
func NewCR(n, c int, seed int64) (*Scheme, error) {
	p, err := placement.CR(n, c)
	if err != nil {
		return nil, err
	}
	return &Scheme{inner: core.New(p, seed)}, nil
}

// NewHR builds an IS-GC scheme over hybrid repetition HR(n, c1, c2) with g
// groups (g | n): c1 placement rows follow the within-group cyclic pattern
// and c2 rows follow the global CR pattern, trading off between FR (better
// recovery) and CR (more flexible c). Valid range per Theorem 6:
// c ≤ n/g ≤ min(2c-1, c+c1) where c = c1+c2; c1 = 0 degenerates to CR.
func NewHR(n, c1, c2, g int, seed int64) (*Scheme, error) {
	p, err := placement.HR(n, c1, c2, g)
	if err != nil {
		return nil, err
	}
	return &Scheme{inner: core.New(p, seed)}, nil
}

// N returns the number of workers (which equals the number of partitions).
func (s *Scheme) N() int { return s.inner.Placement().N() }

// C returns the number of partitions stored per worker.
func (s *Scheme) C() int { return s.inner.Placement().C() }

// Partitions returns the partitions stored on worker i.
func (s *Scheme) Partitions(i int) []int { return s.inner.Placement().Partitions(i) }

// Conflicts reports whether workers u and v share a partition (and hence
// cannot both contribute their coded gradients to ĝ).
func (s *Scheme) Conflicts(u, v int) bool { return s.inner.Placement().Conflicts(u, v) }

// String describes the scheme, e.g. "CR(n=8,c=3)".
func (s *Scheme) String() string { return s.inner.Placement().String() }

// Decode selects the workers whose coded gradients should be summed, given
// the available (non-straggling) workers — a maximum independent set of
// the conflict graph restricted to available. Out-of-range ids are
// ignored; the result is sorted.
func (s *Scheme) Decode(available []int) []int {
	return s.inner.Decode(bitset.FromSlice(available)).Slice()
}

// Recovered returns the sorted partition indices covered by the chosen
// worker set (the I of ĝ = Σ_{i∈I} g_i after mapping workers to their
// partitions). Out-of-range ids are ignored, as in Decode.
func (s *Scheme) Recovered(chosen []int) []int {
	return s.inner.Recovered(bitset.FromSlice(chosen)).Slice()
}

// RecoveredFraction returns the fraction of all partitions recovered when
// decoding the given availability set: 1.0 means the full gradient.
func (s *Scheme) RecoveredFraction(available []int) float64 {
	return s.inner.RecoveredFraction(bitset.FromSlice(available))
}

// AlphaBounds returns the guaranteed [min, max] number of non-conflicting
// workers the decoder selects when w workers are available (Theorems 10
// and 11 of the paper; scheme-aware for HR).
func (s *Scheme) AlphaBounds(w int) (lower, upper int) {
	return s.inner.Placement().AlphaBounds(w)
}

// EncodeLocal computes a worker's coded upload from the gradients of its
// own c partitions (index-aligned with Partitions(worker)): the plain sum.
func (s *Scheme) EncodeLocal(worker int, local [][]float64) ([]float64, error) {
	return s.inner.EncodePartial(worker, local)
}

// Aggregate sums the coded gradients of the chosen workers into the
// recovered gradient ĝ and returns it together with the covered partition
// indices. coded is indexed by worker id; entries for workers outside
// chosen may be nil.
func (s *Scheme) Aggregate(chosen []int, coded [][]float64) (ghat []float64, parts []int, err error) {
	g, p, err := s.inner.Aggregate(bitset.FromSlice(chosen), coded)
	if err != nil {
		return nil, nil, err
	}
	return g, p.Slice(), nil
}

// DecodeAndAggregate is the full master-side step: Decode then Aggregate.
func (s *Scheme) DecodeAndAggregate(available []int, coded [][]float64) (ghat []float64, parts, chosen []int, err error) {
	g, p, ch, err := s.inner.DecodeAndAggregate(bitset.FromSlice(available), coded)
	if err != nil {
		return nil, nil, nil, err
	}
	return g, p.Slice(), ch.Slice(), nil
}

// ExpectedRecovery returns E[recovered fraction] when a uniformly random
// w-subset of workers is available: exact by enumeration for small
// instances, Monte-Carlo (20000 draws, fixed seed) otherwise. This is the
// curve of Figs. 12(a)/13(a) without running any training.
func (s *Scheme) ExpectedRecovery(w int) (float64, error) {
	return analysis.ExpectedRecovery(s.inner.Placement(), w, 200000, 20000, 1)
}

// Verify checks a user-supplied worker selection: it returns an error if
// chosen contains conflicting or out-of-range workers, and otherwise the
// number of partitions it recovers. Useful when integrating a custom
// decoder.
func (s *Scheme) Verify(chosen []int) (int, error) {
	set := bitset.FromSlice(chosen)
	n := s.N()
	bad := -1
	set.Range(func(v int) bool {
		if v >= n {
			bad = v
			return false
		}
		return true
	})
	if bad >= 0 {
		return 0, fmt.Errorf("isgc: worker %d out of range [0,%d)", bad, n)
	}
	if !s.inner.Placement().ConflictGraph().IsIndependent(set) {
		return 0, fmt.Errorf("isgc: chosen workers conflict (share a partition)")
	}
	return s.inner.Recovered(set).Len(), nil
}
