package isgc

import (
	"fmt"

	"isgc/internal/bitset"
	"isgc/internal/linalg"
)

// Encode computes worker i's coded gradient: the plain sum of the gradient
// vectors of its c partitions (Sec. IV — all-ones coefficients are what
// make arbitrary-subset decoding possible). grads[d] is the gradient on
// partition d; all vectors must have the same dimension. The result is a
// freshly allocated vector.
func (s *Scheme) Encode(worker int, grads [][]float64) ([]float64, error) {
	if worker < 0 || worker >= s.p.N() {
		return nil, fmt.Errorf("isgc: worker %d out of range [0,%d)", worker, s.p.N())
	}
	if len(grads) != s.p.N() {
		return nil, fmt.Errorf("isgc: got %d partition gradients, want %d", len(grads), s.p.N())
	}
	parts := s.p.Partitions(worker)
	local := make([][]float64, len(parts))
	for j, d := range parts {
		local[j] = grads[d]
		if len(local[j]) != len(local[0]) {
			return nil, fmt.Errorf("isgc: partition %d gradient dim %d ≠ %d", d, len(local[j]), len(local[0]))
		}
	}
	out := make([]float64, len(local[0]))
	linalg.SumInto(out, local)
	return out, nil
}

// EncodePartial computes worker i's coded gradient from only the gradients
// it can locally see: local[j] is the gradient of the worker's j-th
// partition (j indexes Partitions(worker)). This is the form a real worker
// uses — it never holds gradients for partitions it does not store.
func (s *Scheme) EncodePartial(worker int, local [][]float64) ([]float64, error) {
	if worker < 0 || worker >= s.p.N() {
		return nil, fmt.Errorf("isgc: worker %d out of range [0,%d)", worker, s.p.N())
	}
	if len(local) != s.p.C() {
		return nil, fmt.Errorf("isgc: worker %d got %d local gradients, want c=%d", worker, len(local), s.p.C())
	}
	for j, g := range local {
		if len(g) != len(local[0]) {
			return nil, fmt.Errorf("isgc: local gradient %d dim %d ≠ %d", j, len(g), len(local[0]))
		}
	}
	out := make([]float64, len(local[0]))
	linalg.SumInto(out, local)
	return out, nil
}

// Aggregate sums the coded gradients of the decoded worker set I into the
// recovered gradient ĝ = Σ_{i∈I} coded[i]. coded[i] may be nil for workers
// outside I (stragglers whose gradients never arrived). It returns ĝ and
// the set of partitions it covers. A chosen id outside [0, n) is an error:
// Recovered ignores such ids, so a row summed for one would be a gradient ĝ
// holds and its partition set does not count.
//
// Rows are added in ascending worker order, four per pass over ĝ with the
// association kept left to right (linalg.AddTo4), so every bit of ĝ equals
// the row-at-a-time sum. The set is walked word by word (bitset.Cursor) with
// one pass of look-ahead: each pass is handed the next pass's four rows to
// prefetch, since chosen rows sit a stride of c or more rows apart, where
// the hardware prefetcher does not follow. ĝ is a fresh vector; see
// AggregateInto to sum into one the caller keeps.
func (s *Scheme) Aggregate(chosen *bitset.Set, coded [][]float64) ([]float64, *bitset.Set, error) {
	return s.AggregateInto(nil, chosen, coded)
}

// AggregateInto is Aggregate summing into dst when dst holds exactly the
// coded dimension: dst is zeroed and returned as ĝ, with the bits a fresh
// vector would have. Any other dst (nil included) is left alone and ĝ is
// allocated. On an error dst may hold a partial sum.
func (s *Scheme) AggregateInto(dst []float64, chosen *bitset.Set, coded [][]float64) ([]float64, *bitset.Set, error) {
	n := s.p.N()
	var ghat []float64
	var rows [8][]float64 // the pass being summed, then the next one
	k := 0
	it := chosen.Cursor()
	for i := it.Next(); i >= 0; i = it.Next() {
		if i >= n {
			return nil, nil, fmt.Errorf("isgc: chosen worker %d out of range [0,%d)", i, n)
		}
		if i >= len(coded) || coded[i] == nil {
			return nil, nil, fmt.Errorf("isgc: chosen worker %d has no coded gradient", i)
		}
		if ghat == nil {
			if ghat = dst; ghat == nil || len(ghat) != len(coded[i]) {
				ghat = make([]float64, len(coded[i]))
			} else {
				linalg.ZeroVec(ghat)
			}
		}
		if len(coded[i]) != len(ghat) {
			return nil, nil, fmt.Errorf("isgc: worker %d coded gradient dim %d ≠ %d", i, len(coded[i]), len(ghat))
		}
		rows[k] = coded[i]
		if k++; k == len(rows) {
			linalg.AddTo4(ghat, rows[0], rows[1], rows[2], rows[3], rows[4:]...)
			k = copy(rows[:], rows[4:])
		}
	}
	if k >= 4 {
		linalg.AddTo4(ghat, rows[0], rows[1], rows[2], rows[3], rows[4:k]...)
		k = copy(rows[:], rows[4:k])
	}
	for _, row := range rows[:k] {
		linalg.AddTo(ghat, row)
	}
	return ghat, s.Recovered(chosen), nil
}

// DecodeAndAggregate runs the full master-side step: decode the available
// set, then aggregate the corresponding coded gradients. It returns the
// recovered gradient ĝ (nil when no worker is available), the partition set
// it covers, and the chosen worker set I.
func (s *Scheme) DecodeAndAggregate(available *bitset.Set, coded [][]float64) (ghat []float64, parts, chosen *bitset.Set, err error) {
	chosen = s.Decode(available)
	ghat, parts, err = s.Aggregate(chosen, coded)
	if err != nil {
		return nil, nil, nil, err
	}
	return ghat, parts, chosen, nil
}
