package store

import (
	"container/list"
	"sync"
)

// LRU is a generic LRU cache bounded by entry count and, when a size
// function is provided, by total payload bytes, with hit/miss/eviction
// counters. It is the memory tier of a Store (V = []byte), the recency
// order of a bounded disk tier (V = a file's size) and the typed memo
// of the experiment runner (V = the memoized run outcome). All methods
// are safe for concurrent use.
type LRU[V any] struct {
	// OnEvict, when set before the first Put, is called with each entry
	// the bounds evict, least recently used first, with the cache's lock
	// held: it must not call back into the cache.
	OnEvict func(key string, v V)

	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	size       func(V) int64
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
	bytes      int64
	hits       uint64
	misses     uint64
	evictions  uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

// NewLRU returns an LRU bounded to maxEntries entries (<= 0:
// unbounded) and, when size is non-nil, to maxBytes payload bytes
// (<= 0: unbounded). size reports one value's byte cost; nil means
// every entry costs zero and only the entry bound applies.
func NewLRU[V any](maxEntries int, maxBytes int64, size func(V) int64) *LRU[V] {
	return &LRU[V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		size:       size,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

func (c *LRU[V]) sizeOf(v V) int64 {
	if c.size == nil {
		return 0
	}
	return c.size(v)
}

// Get returns the value for a key and records a hit or a miss.
func (c *LRU[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry[V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Peek returns the value for a key without touching the LRU order or
// the hit/miss counters — used to re-check the cache from inside a
// singleflight slot, where the caller already recorded its miss.
func (c *LRU[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*lruEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// Put stores a value under a key, evicting least-recently used entries
// until both bounds hold, and reports whether the cache kept the value.
// A value larger than the byte bound on its own is not cached at all
// (an older value under its key is dropped) — admitting it would flush
// the entire cache for a payload that can never be retained alongside
// anything else.
func (c *LRU[V]) Put(key string, v V) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if c.maxBytes > 0 && c.sizeOf(v) > c.maxBytes {
		if ok {
			c.removeLocked(el)
		}
		return false
	}
	if ok {
		e := el.Value.(*lruEntry[V])
		c.bytes += c.sizeOf(v) - c.sizeOf(e.val)
		e.val = v
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: v})
		c.bytes += c.sizeOf(v)
	}
	for c.overfull() && c.ll.Len() > 0 {
		e := c.removeLocked(c.ll.Back())
		c.evictions++
		if c.OnEvict != nil {
			c.OnEvict(e.key, e.val)
		}
	}
	return true
}

// Remove drops a key, releasing its bytes. It is not an eviction: the
// counters and OnEvict do not see it.
func (c *LRU[V]) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
}

func (c *LRU[V]) removeLocked(el *list.Element) *lruEntry[V] {
	e := c.ll.Remove(el).(*lruEntry[V])
	delete(c.items, e.key)
	c.bytes -= c.sizeOf(e.val)
	return e
}

func (c *LRU[V]) overfull() bool {
	return (c.maxEntries > 0 && len(c.items) > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes)
}

// LRUStats is a point-in-time snapshot of an LRU's counters.
type LRUStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	Bytes     int64
}

// Stats snapshots the cache's counters.
func (c *LRU[V]) Stats() LRUStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return LRUStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: len(c.items), Bytes: c.bytes}
}
