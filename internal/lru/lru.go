// Package lru is the one bounded cache of the serving layer: a
// fixed-capacity map that evicts its least recently used entry, safe for
// concurrent use under a single lock. The response, program, probation
// and delta-base tiers of internal/service, the labeling memo of
// internal/experiments and the router's response cache and
// delta-recovery set are all instances.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps keys to values, holding at most its capacity of entries.
// Get, Put and GetOrPut all make the entry the most recently used; an
// insert that overflows the capacity evicts the least recently used entry.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	cap       int
	items     map[K]*list.Element
	order     *list.List // front = most recently used; values are *entry[K, V]
	evictions int64
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding up to capacity entries (minimum 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{cap: capacity, items: make(map[K]*list.Element), order: list.New()}
}

// Get returns the value stored under k and whether it was present.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores v under k, replacing any previous value.
func (c *Cache[K, V]) Put(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		el.Value.(*entry[K, V]).val = v
		return
	}
	c.insert(k, v)
}

// GetOrPut returns the value stored under k, or stores v under k and
// returns it when k is absent; either way the entry becomes the most
// recently used. Concurrent callers that each built a value for one key
// all end up with the first one stored.
func (c *Cache[K, V]) GetOrPut(k K, v V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val
	}
	c.insert(k, v)
	return v
}

// Remove deletes the entry stored under k and reports whether there was
// one. A removal is not an eviction.
func (c *Cache[K, V]) Remove(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if ok {
		c.order.Remove(el)
		delete(c.items, k)
	}
	return ok
}

// insert adds an absent key as the most recently used entry, evicting the
// least recently used one beyond capacity. The caller holds mu.
func (c *Cache[K, V]) insert(k K, v V) {
	c.items[k] = c.order.PushFront(&entry[K, V]{key: k, val: v})
	if c.order.Len() > c.cap {
		victim := c.order.Back()
		c.order.Remove(victim)
		delete(c.items, victim.Value.(*entry[K, V]).key)
		c.evictions++
	}
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Evictions returns how many entries capacity pressure has evicted.
func (c *Cache[K, V]) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}
