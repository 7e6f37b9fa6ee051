package lru

import (
	"sync"
	"testing"
)

// resident reports which of the keys 0..n-1 the cache holds, reading the
// map directly so the check itself does not refresh recency.
func resident(c *Cache[int, string], n int) []int {
	var out []int
	for k := 0; k < n; k++ {
		c.mu.Lock()
		_, ok := c.items[k]
		c.mu.Unlock()
		if ok {
			out = append(out, k)
		}
	}
	return out
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[int, string](3)
	for k := 0; k < 5; k++ {
		c.Put(k, "v")
	}
	if got := resident(c, 5); !equal(got, []int{2, 3, 4}) {
		t.Fatalf("resident = %v, want [2 3 4] (oldest two evicted in insertion order)", got)
	}
	if c.Len() != 3 || c.Evictions() != 2 {
		t.Fatalf("len/evictions = %d/%d, want 3/2", c.Len(), c.Evictions())
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	c := New[int, string](2)
	c.Put(0, "a")
	c.Put(1, "b")
	if v, ok := c.Get(0); !ok || v != "a" {
		t.Fatalf("Get(0) = %q, %v", v, ok)
	}
	c.Put(2, "c") // 1 is now the least recently used
	if got := resident(c, 3); !equal(got, []int{0, 2}) {
		t.Fatalf("resident = %v, want [0 2] (Get must refresh 0)", got)
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("evicted key still answers Get")
	}
}

func TestPutOverwritesAndRefreshes(t *testing.T) {
	c := New[int, string](2)
	c.Put(0, "a")
	c.Put(1, "b")
	c.Put(0, "a2") // overwrite: no growth, 0 becomes most recent
	if c.Len() != 2 || c.Evictions() != 0 {
		t.Fatalf("len/evictions = %d/%d after overwrite, want 2/0", c.Len(), c.Evictions())
	}
	if v, _ := c.Get(0); v != "a2" {
		t.Fatalf("Get(0) = %q, want the overwritten value", v)
	}
	c.Put(2, "c")
	if got := resident(c, 3); !equal(got, []int{0, 2}) {
		t.Fatalf("resident = %v, want [0 2] (Put must refresh 0)", got)
	}
}

func TestGetOrPutKeepsTheFirstValue(t *testing.T) {
	c := New[int, string](2)
	if v := c.GetOrPut(0, "a"); v != "a" {
		t.Fatalf("GetOrPut on an absent key = %q, want the stored value", v)
	}
	c.Put(1, "b")
	if v := c.GetOrPut(0, "a2"); v != "a" {
		t.Fatalf("GetOrPut on a present key = %q, want the first value", v)
	}
	c.GetOrPut(2, "c") // 0 was refreshed above, so 1 is evicted
	if got := resident(c, 3); !equal(got, []int{0, 2}) || c.Evictions() != 1 {
		t.Fatalf("resident = %v with %d evictions, want [0 2] and 1", got, c.Evictions())
	}
}

func TestRemove(t *testing.T) {
	c := New[int, string](2)
	c.Put(0, "a")
	c.Put(1, "b")
	if !c.Remove(0) {
		t.Fatal("Remove of a resident key reported no entry")
	}
	if c.Remove(0) {
		t.Fatal("second Remove of the same key reported an entry")
	}
	if _, ok := c.Get(0); ok || c.Len() != 1 {
		t.Fatalf("removed key still answers Get, or len = %d, want 1", c.Len())
	}
	// The freed slot takes a new key without evicting 1, and a removal
	// is not counted as an eviction.
	c.Put(2, "c")
	if got := resident(c, 3); !equal(got, []int{1, 2}) || c.Evictions() != 0 {
		t.Fatalf("resident = %v with %d evictions, want [1 2] and 0", got, c.Evictions())
	}
	c.Put(3, "d") // 1 is the least recently used survivor
	if got := resident(c, 4); !equal(got, []int{2, 3}) || c.Evictions() != 1 {
		t.Fatalf("resident = %v with %d evictions, want [2 3] and 1", got, c.Evictions())
	}
}

func TestCapacityFloorIsOne(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		c := New[int, string](capacity)
		c.Put(0, "a")
		c.Put(1, "b")
		if got := resident(c, 2); !equal(got, []int{1}) {
			t.Fatalf("capacity %d: resident = %v, want [1]", capacity, got)
		}
	}
}

func TestConcurrentUse(t *testing.T) {
	c := New[int, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g*31 + i) % 40
				c.Put(k, i)
				c.Get(k + 1)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 16 {
		t.Fatalf("len = %d, want 16", c.Len())
	}
}

// Goroutines putting and removing disjoint keys leave nothing behind, and
// removals never count as evictions.
func TestConcurrentRemove(t *testing.T) {
	c := New[int, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := g*8 + i%8
				c.Put(k, i)
				c.Get(k)
				if !c.Remove(k) {
					t.Errorf("goroutine %d: Remove(%d) found no entry", g, k)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 0 || c.Evictions() != 0 {
		t.Fatalf("len/evictions = %d/%d, want 0/0", c.Len(), c.Evictions())
	}
}
