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
