// Package bitset provides a compact set of non-negative integers backed by
// machine words. It is the workhorse behind the conflict-graph adjacency
// structures and the exact maximum-independent-set oracle: all hot-path
// operations (intersection, population count, iteration) are word-parallel.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a growable bitset. The zero value is an empty set ready for use.
// Set is not safe for concurrent mutation.
type Set struct {
	words []uint64
}

// New returns a set with capacity for values in [0, n). The set may still
// grow beyond n via Add.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromSlice builds a set containing every value in vs.
func FromSlice(vs []int) *Set {
	s := &Set{}
	for _, v := range vs {
		s.Add(v)
	}
	return s
}

func (s *Set) grow(word int) {
	if word < len(s.words) {
		return
	}
	w := make([]uint64, word+1)
	copy(w, s.words)
	s.words = w
}

// Add inserts v into the set. Negative values are ignored.
func (s *Set) Add(v int) {
	if v < 0 {
		return
	}
	w := v / wordBits
	s.grow(w)
	s.words[w] |= 1 << uint(v%wordBits)
}

// AddRange inserts every value in [lo, hi): whole words are stored, only
// the two end words are masked. Negative values are ignored, as in Add.
func (s *Set) AddRange(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return
	}
	first, last := lo/wordBits, (hi-1)/wordBits
	s.grow(last)
	head := ^uint64(0) << uint(lo%wordBits)
	tail := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if first == last {
		s.words[first] |= head & tail
		return
	}
	s.words[first] |= head
	for i := first + 1; i < last; i++ {
		s.words[i] = ^uint64(0)
	}
	s.words[last] |= tail
}

// Remove deletes v from the set if present.
func (s *Set) Remove(v int) {
	if v < 0 {
		return
	}
	w := v / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(v%wordBits)
	}
}

// Contains reports whether v is in the set.
func (s *Set) Contains(v int) bool {
	if v < 0 {
		return false
	}
	w := v / wordBits
	return w < len(s.words) && s.words[w]&(1<<uint(v%wordBits)) != 0
}

// Len returns the number of elements in the set.
func (s *Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Clear removes all elements, retaining capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

func (s *Set) alignTo(o *Set) {
	if len(o.words) > len(s.words) {
		s.grow(len(o.words) - 1)
	}
}

// UnionWith adds every element of o to s.
func (s *Set) UnionWith(o *Set) {
	s.alignTo(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// IntersectWith removes from s every element not in o.
func (s *Set) IntersectWith(o *Set) {
	for i := range s.words {
		if i < len(o.words) {
			s.words[i] &= o.words[i]
		} else {
			s.words[i] = 0
		}
	}
}

// DifferenceWith removes from s every element of o.
func (s *Set) DifferenceWith(o *Set) {
	for i := range s.words {
		if i < len(o.words) {
			s.words[i] &^= o.words[i]
		}
	}
}

// Intersects reports whether s and o share at least one element.
func (s *Set) Intersects(o *Set) bool {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectionCount returns |s ∩ o| without allocating.
func (s *Set) IntersectionCount(o *Set) int {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(s.words[i] & o.words[i])
	}
	return c
}

// AndNot returns a new set holding s \ o (the elements of s not in o).
// The word-parallel complement of DifferenceWith for callers that need the
// original left intact — mask-delta computations (departed = prev &^ cur,
// returned = cur &^ prev) are its hot use.
func (s *Set) AndNot(o *Set) *Set {
	out := &Set{words: make([]uint64, len(s.words))}
	for i, w := range s.words {
		var ow uint64
		if i < len(o.words) {
			ow = o.words[i]
		}
		out.words[i] = w &^ ow
	}
	return out
}

// rangeWords visits the words overlapping [lo, hi) with the partial first
// and last words masked down to the range, calling fn(index, maskedWord).
// Iteration stops early when fn returns false.
func (s *Set) rangeWords(lo, hi int, fn func(i int, w uint64) bool) {
	if lo < 0 {
		lo = 0
	}
	if max := len(s.words) * wordBits; hi > max {
		hi = max
	}
	if lo >= hi {
		return
	}
	first, last := lo/wordBits, (hi-1)/wordBits
	for i := first; i <= last; i++ {
		w := s.words[i]
		if i == first {
			w &= ^uint64(0) << uint(lo%wordBits)
		}
		if i == last {
			if r := (hi-1)%wordBits + 1; r < wordBits {
				w &= (1 << uint(r)) - 1
			}
		}
		if !fn(i, w) {
			return
		}
	}
}

// AnyInRange reports whether s contains an element in [lo, hi).
// O((hi-lo)/64) words, independent of the population.
func (s *Set) AnyInRange(lo, hi int) bool {
	if lo < 0 {
		lo = 0
	}
	if max := len(s.words) * wordBits; hi > max {
		hi = max
	}
	return lo < hi && s.anyIn(lo, hi)
}

// anyIn is AnyInRange for a non-empty range inside the stored words
// (0 ≤ lo < hi ≤ 64·len(words)): the two end words masked, the rest whole.
func (s *Set) anyIn(lo, hi int) bool {
	first, last := lo/wordBits, (hi-1)/wordBits
	head := ^uint64(0) << uint(lo%wordBits)
	tail := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if first == last {
		return s.words[first]&head&tail != 0
	}
	if s.words[first]&head != 0 || s.words[last]&tail != 0 {
		return true
	}
	for _, w := range s.words[first+1 : last] {
		if w != 0 {
			return true
		}
	}
	return false
}

// OccupiedBlocks returns how many of the aligned blocks
// [k·size, (k+1)·size) hold an element of s, in one pass over the words.
// When size divides 64 no block straddles a word: OR-folding every block
// onto its lowest bit leaves one bit per occupied block, and a popcount per
// word counts them. Other sizes test each block on the words it spans.
func (s *Set) OccupiedBlocks(size int) int {
	if size <= 0 {
		panic(fmt.Sprintf("bitset: OccupiedBlocks(%d): block size must be positive", size))
	}
	n := 0
	if wordBits%size == 0 {
		lead := uint64(1) // bit 0 of every block
		if size < wordBits {
			lead = ^uint64(0) / (1<<uint(size) - 1)
		}
		for _, w := range s.words {
			for sh := 1; sh < size; sh <<= 1 {
				w |= w >> uint(sh)
			}
			n += bits.OnesCount64(w & lead)
		}
		return n
	}
	end := len(s.words) * wordBits
	for lo := 0; lo < end; lo += size {
		if s.anyIn(lo, min(lo+size, end)) {
			n++
		}
	}
	return n
}

// CountInRange returns |s ∩ [lo, hi)| via per-word popcounts.
func (s *Set) CountInRange(lo, hi int) int {
	n := 0
	s.rangeWords(lo, hi, func(_ int, w uint64) bool {
		n += bits.OnesCount64(w)
		return true
	})
	return n
}

// NextInRange returns the smallest element of s in [lo, hi), or -1 when the
// range holds none. This is the bit-scan primitive behind the interval
// greedy walks: each probe costs O(range/64) words, not O(range) bits. A CR
// decode calls it ~c times per chosen worker, so it scans the words directly
// rather than through rangeWords' callback.
func (s *Set) NextInRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if max := len(s.words) * wordBits; hi > max {
		hi = max
	}
	if lo >= hi {
		return -1
	}
	i := lo / wordBits
	w := s.words[i] & (^uint64(0) << uint(lo%wordBits))
	for w == 0 {
		i++
		if i*wordBits >= hi {
			return -1
		}
		w = s.words[i]
	}
	if v := i*wordBits + bits.TrailingZeros64(w); v < hi {
		return v
	}
	return -1
}

// NextAbsent returns the smallest value in [lo, hi) that is not in s, or -1
// when s holds every value of the range; values past the stored words count
// as absent and a negative lo counts from 0. It is NextInRange on the
// complement, with the same direct word scan: the CR walk uses it to find
// where a run of available workers ends.
func (s *Set) NextAbsent(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return -1
	}
	i := lo / wordBits
	if i >= len(s.words) {
		return lo
	}
	w := ^s.words[i] & (^uint64(0) << uint(lo%wordBits))
	for w == 0 {
		i++
		if i*wordBits >= hi {
			return -1
		}
		if i == len(s.words) {
			return i * wordBits
		}
		w = ^s.words[i]
	}
	if v := i*wordBits + bits.TrailingZeros64(w); v < hi {
		return v
	}
	return -1
}

// SpreadCircular returns {(v + k) mod n : v ∈ s, v < n, 0 ≤ k < width} for
// 1 ≤ width ≤ n: every element of s below n widened into the circular run
// of width values it starts. It works on words, not elements. s masked to
// [0, n) is OR-ed with shifted copies of itself, doubling the covered width
// each pass (⌈log₂ width⌉ passes) over n+width−1 bits, and the spill past
// n is folded back onto [0, width−1). One allocation of words holds the
// spill; the result is resliced to n bits.
func (s *Set) SpreadCircular(n, width int) *Set {
	if width < 1 || width > n {
		panic(fmt.Sprintf("bitset: SpreadCircular(%d, %d): width must be in [1, n]", n, width))
	}
	nw := (n + wordBits - 1) / wordBits
	tail := ^uint64(0) // the bits of word nw−1 below n
	if r := n % wordBits; r != 0 {
		tail = 1<<uint(r) - 1
	}
	w := make([]uint64, (n+width-1+wordBits-1)/wordBits)
	copy(w[:nw], s.words)
	w[nw-1] &= tail
	for have := 1; have < width; {
		k := min(have, width-have)
		orShiftedUp(w, k)
		have += k
	}
	// Fold the spill [n, n+width−1) onto [0, width−1). Target word t reads
	// the 64 bits from n+64t, which sit in later words unless n < 64, where
	// it reads word 0 before writing it.
	for t := 0; t*wordBits < width-1; t++ {
		w[t] |= wordAt(w, n+t*wordBits)
	}
	w[nw-1] &= tail
	clear(w[nw:])
	return &Set{words: w[:nw]}
}

// orShiftedUp sets w |= w << k over the whole slice, dropping bits shifted
// past its end. Words are visited from the top so every source word is read
// before it is written.
func orShiftedUp(w []uint64, k int) {
	q, r := k/wordBits, uint(k%wordBits)
	for i := len(w) - 1; i >= q; i-- {
		v := w[i-q] << r
		if r != 0 && i-q > 0 {
			v |= w[i-q-1] >> (wordBits - r)
		}
		w[i] |= v
	}
}

// wordAt returns the 64 bits of w starting at bit pos, zeros past its end.
func wordAt(w []uint64, pos int) uint64 {
	i, r := pos/wordBits, uint(pos%wordBits)
	var v uint64
	if i < len(w) {
		v = w[i] >> r
	}
	if r != 0 && i+1 < len(w) {
		v |= w[i+1] << (wordBits - r)
	}
	return v
}

// Select returns the k-th smallest element (0-based), or -1 when k is out
// of range. Words are skipped by popcount, so selection is O(n/64 + 64)
// rather than a per-element walk — what makes a uniform random pick from a
// 50k-worker availability mask cheap.
func (s *Set) Select(k int) int {
	if k < 0 {
		return -1
	}
	for i, w := range s.words {
		c := bits.OnesCount64(w)
		if k >= c {
			k -= c
			continue
		}
		for ; ; k-- {
			b := bits.TrailingZeros64(w)
			if k == 0 {
				return i*wordBits + b
			}
			w &^= 1 << uint(b)
		}
	}
	return -1
}

// CloneCapped returns a copy of s restricted to values in [0, n), sized
// for exactly that universe. The word-parallel form of "clone, then drop
// out-of-range elements": O(n/64) words regardless of population, which is
// what keeps per-step mask clamping cheap at tens of thousands of workers.
func (s *Set) CloneCapped(n int) *Set {
	out := New(n)
	m := len(out.words)
	if len(s.words) < m {
		m = len(s.words)
	}
	copy(out.words[:m], s.words[:m])
	if r := n % wordBits; r != 0 && len(out.words) > 0 {
		out.words[len(out.words)-1] &= (1 << uint(r)) - 1
	}
	return out
}

// Equal reports whether s and o contain exactly the same elements.
func (s *Set) Equal(o *Set) bool {
	long, short := s.words, o.words
	if len(short) > len(long) {
		long, short = short, long
	}
	for i, w := range short {
		if long[i] != w {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	for i, w := range s.words {
		var ow uint64
		if i < len(o.words) {
			ow = o.words[i]
		}
		if w&^ow != 0 {
			return false
		}
	}
	return true
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int {
	for i, w := range s.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Max returns the largest element, or -1 if the set is empty.
func (s *Set) Max() int {
	for i := len(s.words) - 1; i >= 0; i-- {
		if w := s.words[i]; w != 0 {
			return i*wordBits + wordBits - 1 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// Range calls fn for each element in ascending order. If fn returns false,
// iteration stops.
func (s *Set) Range(fn func(v int) bool) {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(i*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Cursor enumerates a set's elements in ascending order a word at a time:
// no callback per element, no allocation, one word load per 64 values. Its
// zero value is exhausted; Set.Cursor starts one. The set must not change
// while a cursor walks it.
type Cursor struct {
	words []uint64
	k     int    // index of the word w came from
	w     uint64 // the bits of words[k] not yet returned
}

// Cursor returns a cursor positioned before the smallest element.
func (s *Set) Cursor() Cursor { return Cursor{words: s.words, k: -1} }

// CursorRange returns a cursor over the elements in [lo, hi). Both bounds
// must be multiples of 64, so the cursor walks whole words; bounds past the
// set's last word are clamped to it.
func (s *Set) CursorRange(lo, hi int) Cursor {
	if lo < 0 || lo%wordBits != 0 || hi%wordBits != 0 {
		panic(fmt.Sprintf("bitset: CursorRange(%d, %d) bounds are not non-negative multiples of %d", lo, hi, wordBits))
	}
	w1 := min(max(hi/wordBits, 0), len(s.words))
	return Cursor{words: s.words[:w1], k: min(lo/wordBits, w1) - 1}
}

// Next returns the next element, or -1 once every element was returned.
func (c *Cursor) Next() int {
	for c.w == 0 {
		if c.k+1 >= len(c.words) {
			return -1
		}
		c.k++
		c.w = c.words[c.k]
	}
	b := bits.TrailingZeros64(c.w)
	c.w &= c.w - 1
	return c.k*wordBits + b
}

// Slice returns the elements in ascending order, in a slice of exactly
// Len() values.
func (s *Set) Slice() []int { return s.AppendSlice(make([]int, 0, s.Len())) }

// AppendSlice appends the elements in ascending order to dst and returns
// the extended slice. It is written a word at a time, a full word as a run
// of 64: the master's partition list is tens of thousands of elements,
// mostly full words, every step, and a caller that keeps dst across steps
// allocates nothing once it has grown to the list's length. A dst without
// room is copied into one of exactly the length needed.
func (s *Set) AppendSlice(dst []int) []int {
	k := len(dst)
	if need := k + s.Len(); need > cap(dst) {
		dst = append(make([]int, 0, need), dst...)
	}
	out := dst[:cap(dst)]
	for i, w := range s.words {
		base := i * wordBits
		if w == ^uint64(0) {
			run := out[k : k+wordBits]
			for b := range run {
				run[b] = base + b
			}
			k += wordBits
			continue
		}
		for ; w != 0; w &= w - 1 {
			out[k] = base + bits.TrailingZeros64(w)
			k++
		}
	}
	return out[:k]
}

// AppendKey appends a canonical byte encoding of the set to dst and
// returns the extended slice. Two sets with equal elements produce equal
// encodings regardless of internal capacity (trailing zero words are
// trimmed), which makes the result usable as a map key via string(key).
func (s *Set) AppendKey(dst []byte) []byte {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	for _, w := range s.words[:n] {
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

// String renders the set as "{a, b, c}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.Range(func(v int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", v)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
