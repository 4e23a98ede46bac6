package isgc

import (
	"container/list"
	"sync/atomic"

	"isgc/internal/bitset"
)

// decodeCache memoizes Decode results keyed on the availability bitmask.
// Availability masks repeat heavily across training steps (the same
// subset of workers tends to be slow), so after warm-up the master skips
// the greedy MIS walk entirely for recurring masks.
//
// Caching freezes the randomized tie-breaking of Algorithms 1–3 for a
// repeated mask: the first decode of a mask fixes which maximum
// independent set is used forever after (until eviction). The *size* of
// the result is unaffected — every maximum independent set of G[W'] has
// the same cardinality — so recovered-fraction numbers are identical;
// only the per-worker fairness rotation of Sec. IV is traded away. That
// is why the cache is opt-in (EnableDecodeCache) rather than always on.
//
// Like Scheme itself the cache is not safe for concurrent use; the
// hit/miss counters are atomics only so that metrics scrapes may read
// them from other goroutines.
type decodeCache struct {
	capacity int
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	hits     atomic.Uint64
	misses   atomic.Uint64
	onHit    func()
	onMiss   func()
	keyBuf   []byte
}

type cacheEntry struct {
	key       string
	chosen    *bitset.Set
	recovered *bitset.Set
}

func newDecodeCache(capacity int) *decodeCache {
	if capacity <= 0 {
		capacity = 1
	}
	return &decodeCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element, capacity),
		order:    list.New(),
	}
}

// lookup returns the cached entry for the mask, or nil on a miss.
func (c *decodeCache) lookup(avail *bitset.Set) *cacheEntry {
	c.keyBuf = avail.AppendKey(c.keyBuf[:0])
	el, ok := c.entries[string(c.keyBuf)]
	if !ok {
		c.misses.Add(1)
		if c.onMiss != nil {
			c.onMiss()
		}
		return nil
	}
	c.hits.Add(1)
	if c.onHit != nil {
		c.onHit()
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// store inserts a freshly decoded result, evicting the least recently
// used entry when the cache is full. The sets are stored as-is: callers
// receive clones (see Scheme.Decode), so cached sets are never mutated.
func (c *decodeCache) store(avail *bitset.Set, chosen, recovered *bitset.Set) {
	key := string(avail.AppendKey(c.keyBuf[:0]))
	if _, ok := c.entries[key]; ok {
		return
	}
	if c.order.Len() >= c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, chosen: chosen, recovered: recovered})
}

// EnableDecodeCache turns on decode memoization with an LRU of the given
// capacity (entries; <=0 means 1). Calling it again resets the cache and
// its counters. See the decodeCache comment for the fairness tradeoff.
func (s *Scheme) EnableDecodeCache(capacity int) {
	cache := newDecodeCache(capacity)
	cache.onHit, cache.onMiss = s.cacheHooks[0], s.cacheHooks[1]
	s.cache = cache
}

// SetDecodeCacheHooks registers callbacks fired on every cache hit and
// miss — the glue for external metrics counters. Either may be nil. The
// hooks survive EnableDecodeCache resets.
func (s *Scheme) SetDecodeCacheHooks(onHit, onMiss func()) {
	s.cacheHooks = [2]func(){onHit, onMiss}
	if s.cache != nil {
		s.cache.onHit, s.cache.onMiss = onHit, onMiss
	}
}

// DecodeCacheStats returns the cumulative hit and miss counts since the
// cache was (last) enabled, or zeros when it is disabled.
func (s *Scheme) DecodeCacheStats() (hits, misses uint64) {
	if s.cache == nil {
		return 0, 0
	}
	return s.cache.hits.Load(), s.cache.misses.Load()
}
