package isgc

import (
	"fmt"
	"sync/atomic"

	"isgc/internal/bitset"
	"isgc/internal/linalg"
	"isgc/internal/par"
)

// sumBlock is the number of worker ids whose rows form one partial sum of ĝ.
// It is part of ĝ's definition: ĝ's bits depend on it, and on nothing that
// varies with the host (GOMAXPROCS, helpers running, kernel path). At
// n ≤ sumBlock there is one block and ĝ is the row-at-a-time sum. A multiple
// of 64, so a block is whole words of the chosen set.
const sumBlock = 2048

// Aggregate sums the coded gradients of the decoded worker set I into the
// recovered gradient ĝ = Σ_{i∈I} coded[i]. coded[i] may be nil for workers
// outside I (stragglers whose gradients never arrived). It returns ĝ and
// the set of partitions it covers. A chosen id outside [0, n) is an error:
// Recovered ignores such ids, so a row summed for one would be a gradient ĝ
// holds and its partition set does not count.
//
// The association is fixed by blocks of sumBlock worker ids. Block b's
// partial p_b adds its chosen rows in ascending worker order, and ĝ =
// ((0 + p_0) + p_1) + … in block order, so at n ≤ sumBlock every bit of ĝ
// equals the row-at-a-time sum. Rows go four per pass over the sum with
// the association kept left to right (linalg.AddTo4), walked word by word
// (bitset.Cursor) with one pass of look-ahead: each pass is handed the next
// pass's four rows to prefetch, since chosen rows sit a stride of c or more
// rows apart, where the hardware prefetcher does not follow. With more than
// one block the blocks are summed on the calling goroutine and the shared
// compute helpers (package par); which goroutine sums a block never changes
// its bits. ĝ is a fresh vector; see AggregateInto to sum into one the
// caller keeps.
func (s *Scheme) Aggregate(chosen *bitset.Set, coded [][]float64) ([]float64, *bitset.Set, error) {
	return s.AggregateInto(nil, chosen, coded)
}

// AggregateInto is Aggregate summing into dst when dst holds exactly the
// coded dimension: dst is zeroed and returned as ĝ, with the bits a fresh
// vector would have. Any other dst (nil included) is left alone and ĝ is
// allocated. Every row is checked before dst is written, so on an error dst
// is untouched; the error names the lowest bad chosen id, whichever
// goroutine met it.
func (s *Scheme) AggregateInto(dst []float64, chosen *bitset.Set, coded [][]float64) ([]float64, *bitset.Set, error) {
	first := chosen.Min()
	if first < 0 {
		return nil, s.Recovered(chosen), nil
	}
	n := s.p.N()
	dim := -1 // a bad first row is reported before any dimension is compared
	if first < n && first < len(coded) && coded[first] != nil {
		dim = len(coded[first])
	}
	blocks := (n + sumBlock - 1) / sumBlock
	if blocks == 1 {
		if err := rowError(chosen.Cursor(), n, dim, coded); err != nil {
			return nil, nil, err
		}
		ghat := zeroedInto(dst, dim)
		addRows(ghat, chosen.Cursor(), n, coded) // every row is good: checked above
		return ghat, s.Recovered(chosen), nil
	}
	if dim < 0 || chosen.Max() >= n || !s.sumBlocks(chosen, coded, n, dim, blocks) {
		return nil, nil, rowError(chosen.Cursor(), n, dim, coded)
	}
	ghat := zeroedInto(dst, dim)
	p := s.sum.partials
	b := 0
	for ; b+4 <= blocks; b += 4 {
		linalg.AddTo4(ghat, p[b*dim:(b+1)*dim], p[(b+1)*dim:(b+2)*dim], p[(b+2)*dim:(b+3)*dim], p[(b+3)*dim:(b+4)*dim])
	}
	for ; b < blocks; b++ {
		linalg.AddTo(ghat, p[b*dim:(b+1)*dim])
	}
	return ghat, s.Recovered(chosen), nil
}

// zeroedInto returns dst zeroed when it holds exactly dim values, else a
// fresh vector of dim.
func zeroedInto(dst []float64, dim int) []float64 {
	if dst == nil || len(dst) != dim {
		return make([]float64, dim)
	}
	linalg.ZeroVec(dst)
	return dst
}

// rowError returns the error for the first id the cursor yields that has no
// row to sum: one outside [0, n), one without a coded gradient, or one whose
// row is not dim values long.
func rowError(it bitset.Cursor, n, dim int, coded [][]float64) error {
	for i := it.Next(); i >= 0; i = it.Next() {
		switch {
		case i >= n:
			return fmt.Errorf("isgc: chosen worker %d out of range [0,%d)", i, n)
		case i >= len(coded) || coded[i] == nil:
			return fmt.Errorf("isgc: chosen worker %d has no coded gradient", i)
		case len(coded[i]) != dim:
			return fmt.Errorf("isgc: worker %d coded gradient dim %d ≠ %d", i, len(coded[i]), dim)
		}
	}
	return nil
}

// addRows adds the rows of the ids the cursor yields into ghat, in
// ascending order, four per AddTo4 pass with the next four as its prefetch
// hint, then the 1–3 left one at a time. It stops at the first id that
// rowError would report, with ghat part summed, and reports whether it
// got through.
func addRows(ghat []float64, it bitset.Cursor, n int, coded [][]float64) bool {
	var rows [8][]float64 // the pass being summed, then the next one
	k := 0
	for i := it.Next(); i >= 0; i = it.Next() {
		if i >= n || i >= len(coded) || coded[i] == nil || len(coded[i]) != len(ghat) {
			return false
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
	return true
}

// blockSum is a Scheme's scratch for a sum of more than one block, as a
// par job: the partials (blocks × dim values, block b at [b·dim, (b+1)·dim))
// and the operands of the sum in flight. It is allocated on the first such
// sum and regrown only when blocks × dim grows.
type blockSum struct {
	// Set by the caller before the job runs; read-only while it runs.
	chosen   *bitset.Set
	coded    [][]float64
	n, dim   int
	partials []float64

	failed atomic.Bool // some block holds a bad row
	fork   par.Fork
}

// sumBlocks computes every block's partial of the chosen rows into
// s.sum.partials, on the calling goroutine and the shared compute helpers,
// and reports whether every row was good. Every chosen id is below n and
// the first chosen row has dim values.
func (s *Scheme) sumBlocks(chosen *bitset.Set, coded [][]float64, n, dim, blocks int) bool {
	bs := s.sum
	if bs == nil {
		bs = &blockSum{}
		s.sum = bs
	}
	if need := blocks * dim; cap(bs.partials) < need {
		bs.partials = make([]float64, need)
	}
	bs.chosen, bs.coded, bs.n, bs.dim = chosen, coded, n, dim
	bs.partials = bs.partials[:blocks*dim]
	bs.failed.Store(false)
	bs.fork.Run(bs, blocks)
	bs.chosen, bs.coded = nil, nil
	return !bs.failed.Load()
}

// Block sums block b's chosen rows into its partial. A block with a bad row
// marks the sum failed.
func (bs *blockSum) Block(b int) {
	part := bs.partials[b*bs.dim : (b+1)*bs.dim]
	linalg.ZeroVec(part)
	if !addRows(part, bs.chosen.CursorRange(b*sumBlock, (b+1)*sumBlock), bs.n, bs.coded) {
		bs.failed.Store(true)
	}
}
