package expsvc

import (
	"container/list"
	"sync"
)

// DefaultCacheEntries is the result cache's default LRU bound.
const DefaultCacheEntries = 1024

// Cache is the content-addressed result cache: canonical spec hash →
// marshaled report. The engine is deterministic, so an entry can never
// go stale — there is no TTL, only an LRU entry bound to keep a
// long-running service from holding every cell of an unbounded
// experiment grid.
type Cache struct{ *lru[[]byte] }

// NewCache builds a cache bounded to max entries (max <= 0 selects
// DefaultCacheEntries).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	return &Cache{newLRU[[]byte](max, nil)}
}

// lru is the one least-recently-used map behind the result cache and
// the capture store: an entry bound, a count of the entries dropped
// over it, and, when size is set, the sum of the held values' sizes,
// each priced once when it is added.
type lru[V any] struct {
	mu        sync.Mutex
	max       int
	size      func(V) int64
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	held      int64
	evictions uint64
}

type lruEntry[V any] struct {
	key  string
	val  V
	size int64
}

func newLRU[V any](max int, size func(V) int64) *lru[V] {
	return &lru[V]{max: max, size: size, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the value under key, refreshing its recency. A cached
// body is shared — callers must not mutate it.
func (c *lru[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Add inserts (or replaces and refreshes) an entry and evicts from the
// LRU tail past the bound.
func (c *lru[V]) Add(key string, v V) {
	var size int64
	if c.size != nil {
		size = c.size(v)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.held += size
	if el, ok := c.items[key]; ok {
		// Determinism means a re-run produced the same value; keep the
		// newer one anyway and refresh recency.
		ent := el.Value.(*lruEntry[V])
		c.held -= ent.size
		ent.val, ent.size = v, size
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: v, size: size})
	for c.ll.Len() > c.max {
		oldest := c.ll.Remove(c.ll.Back()).(*lruEntry[V])
		delete(c.items, oldest.key)
		c.held -= oldest.size
		c.evictions++
	}
}

// Len returns the current entry count.
func (c *lru[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Capacity returns the LRU bound.
func (c *lru[V]) Capacity() int { return c.max }

// Evictions returns the number of entries dropped over the bound.
func (c *lru[V]) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// heldBytes returns the summed size of the held values (0 without a
// size function).
func (c *lru[V]) heldBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.held
}
