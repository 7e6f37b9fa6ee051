package specmem

import (
	"testing"
	"testing/quick"
)

func TestBufferReadWriteLookup(t *testing.T) {
	b := NewBuffer(4)
	if b.Lookup(10) != nil {
		t.Error("empty buffer lookup should be nil")
	}
	if !b.Write(10, 99) {
		t.Fatal("write rejected")
	}
	e := b.Lookup(10)
	if e == nil || !e.Written || e.Value != 99 {
		t.Errorf("entry = %+v", e)
	}
	// Rewrites do not consume capacity.
	for i := 0; i < 10; i++ {
		if !b.Write(10, int64(i)) {
			t.Fatal("rewrite rejected")
		}
	}
	if b.Size() != 1 {
		t.Errorf("size = %d, want 1", b.Size())
	}
}

func TestBufferOverflow(t *testing.T) {
	b := NewBuffer(2)
	if !b.Write(1, 1) || !b.Write(2, 2) {
		t.Fatal("writes rejected early")
	}
	if b.Write(3, 3) {
		t.Error("third location should overflow")
	}
	if b.NoteRead(4, 0, -1) {
		t.Error("read of new location should overflow")
	}
	// Existing locations still work.
	if !b.Write(1, 5) || !b.NoteRead(2, 0, -1) {
		t.Error("existing locations must not overflow")
	}
	if !b.Full() {
		t.Error("buffer should be full")
	}
}

func TestNoteReadTracksSource(t *testing.T) {
	b := NewBuffer(4)
	if !b.NoteRead(7, 42, 3) {
		t.Fatal("read rejected")
	}
	e := b.Lookup(7)
	if e == nil || !e.ReadFromBelow || e.SourceAge != 3 || e.Value != 42 {
		t.Errorf("entry = %+v", e)
	}
	// A read after an own write does not mark ReadFromBelow.
	b2 := NewBuffer(4)
	b2.Write(7, 1)
	b2.NoteRead(7, 1, -1)
	if b2.Lookup(7).ReadFromBelow {
		t.Error("read of own value must not be premature-read evidence")
	}
}

func TestPrematureRead(t *testing.T) {
	b := NewBuffer(4)
	b.NoteRead(7, 0, -1) // consumed from memory
	if b.PrematureRead(7, 2) == nil {
		t.Error("memory-sourced read is premature for any older writer")
	}
	b2 := NewBuffer(4)
	b2.NoteRead(7, 0, 5) // consumed from ancestor age 5
	if b2.PrematureRead(7, 3) != nil {
		t.Error("read sourced from age 5 is not premature for a write at age 3")
	}
	if b2.PrematureRead(7, 6) == nil {
		t.Error("read sourced from age 5 is premature for a write at age 6")
	}
	if b2.PrematureRead(7, 5) == nil {
		t.Error("a re-write by the forwarding source (age 5) makes the read premature")
	}
	if b2.PrematureRead(8, 6) != nil {
		t.Error("unrelated address")
	}
	// A written entry is not a premature read.
	b3 := NewBuffer(4)
	b3.Write(7, 1)
	if b3.PrematureRead(7, 0) != nil {
		t.Error("own write is not a premature read")
	}
}

func TestResetAndAppendWritten(t *testing.T) {
	b := NewBuffer(8)
	b.Write(5, 50)
	b.Write(3, 30)
	b.NoteRead(9, 0, -1)
	entries := b.AppendWritten(nil)
	if len(entries) != 2 || entries[0].Addr != 3 || entries[1].Addr != 5 {
		t.Errorf("written entries = %v", entries)
	}
	b.Reset()
	if b.Size() != 0 || b.Lookup(5) != nil {
		t.Error("Reset did not empty the buffer")
	}
}

// TestBufferStorageFollowsOccupancy pins storage to the locations a
// segment touches: a buffer whose capacity allows a billion entries starts
// with the minimal slot table, grows as entries arrive (doubling whenever
// the table passes half full), keeps every entry findable across growth
// and Reset, and keeps its grown storage for reuse.
func TestBufferStorageFollowsOccupancy(t *testing.T) {
	b := NewBuffer(1 << 30)
	if len(b.slots) != minSlots || cap(b.entries) != 0 {
		t.Fatalf("new buffer holds %d slots and room for %d entries, want %d and 0",
			len(b.slots), cap(b.entries), minSlots)
	}
	const n = 1000
	for round := 0; round < 3; round++ {
		for i := int64(0); i < n; i++ {
			addr := i*7919 - 3000 // negative and positive, spread over the hash
			if i%3 == 0 {
				if !b.NoteRead(addr, i, int(i%4)-1) {
					t.Fatal("read rejected under capacity")
				}
			} else if !b.Write(addr, i+int64(round)) {
				t.Fatal("write rejected under capacity")
			}
			if 2*b.Size() > len(b.slots) {
				t.Fatalf("slot table %d is more than half full with %d entries", len(b.slots), b.Size())
			}
		}
		if b.Size() != n {
			t.Fatalf("size = %d, want %d", b.Size(), n)
		}
		for i := int64(0); i < n; i++ {
			e := b.Lookup(i*7919 - 3000)
			if e == nil || e.Addr != i*7919-3000 {
				t.Fatalf("round %d: entry %d lost after growth: %+v", round, i, e)
			}
			if i%3 == 0 && (!e.ReadFromBelow || e.Value != i) {
				t.Fatalf("round %d: read entry %d = %+v", round, i, e)
			}
			if i%3 != 0 && (!e.Written || e.Value != i+int64(round)) {
				t.Fatalf("round %d: written entry %d = %+v", round, i, e)
			}
		}
		slots := len(b.slots)
		b.Reset()
		if len(b.slots) != slots || b.Lookup(-3000) != nil {
			t.Fatal("Reset must empty the buffer and keep its grown table")
		}
	}
}

// TestBufferSetCapacity: the overflow limit moves with SetCapacity and
// nothing else about the buffer changes.
func TestBufferSetCapacity(t *testing.T) {
	b := NewBuffer(2)
	if !b.Write(1, 1) || !b.Write(2, 2) || b.Write(3, 3) {
		t.Fatal("capacity 2 must hold exactly two locations")
	}
	b.SetCapacity(3)
	if b.Capacity() != 3 || !b.Write(3, 3) || b.Write(4, 4) {
		t.Fatal("capacity 3 must admit exactly one more location")
	}
	if e := b.Lookup(1); e == nil || e.Value != 1 {
		t.Errorf("entries must survive SetCapacity, got %+v", e)
	}
	b.SetCapacity(1)
	if !b.Write(2, 9) || b.NoteRead(5, 0, -1) {
		t.Error("a lowered limit keeps existing entries writable and rejects new ones")
	}
}

func TestCacheLRU(t *testing.T) {
	// Direct-mapped, 2 sets, 1 word blocks: addresses 0,2,4 map to set 0.
	c := NewCache(2, 1, 1)
	if c.Access(0) {
		t.Error("cold miss expected")
	}
	if !c.Access(0) {
		t.Error("hit expected")
	}
	c.Access(2) // evicts 0
	if c.Access(0) {
		t.Error("0 should have been evicted")
	}
	// 2-way: 0 and 2 coexist.
	c2 := NewCache(2, 2, 1)
	c2.Access(0)
	c2.Access(2)
	if !c2.Access(0) || !c2.Access(2) {
		t.Error("both blocks should fit in 2 ways")
	}
	// LRU eviction: touch 0, then 2, then insert 4: evicts 0.
	c2.Access(0)
	c2.Access(2)
	c2.Access(4)
	if c2.Access(0) {
		t.Error("0 was LRU and should be gone")
	}
}

func TestCacheBlockGranularity(t *testing.T) {
	c := NewCache(4, 1, 4)
	c.Access(0)
	if !c.Access(3) {
		t.Error("same block should hit")
	}
	if c.Access(4) {
		t.Error("next block should miss")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	cfg := HierarchyConfig{
		L1Sets: 1, L1Ways: 1, L2Sets: 2, L2Ways: 1, BlockWords: 1,
		L1Latency: 1, L2Latency: 10, MemLatency: 100,
	}
	h := NewHierarchy(2, cfg)
	if got := h.Access(0, 0); got != 100 {
		t.Errorf("cold access = %d, want 100 (mem)", got)
	}
	if got := h.Access(0, 0); got != 1 {
		t.Errorf("repeat = %d, want 1 (L1)", got)
	}
	// Another processor misses its L1 but hits shared L2.
	if got := h.Access(1, 0); got != 10 {
		t.Errorf("other proc = %d, want 10 (L2)", got)
	}
	// Evict block 0 from the one-line L1 with block 1 (which maps to the
	// other L2 set), then re-access: L1 miss, L2 hit.
	h.Access(0, 1)
	if got := h.Access(0, 0); got != 10 {
		t.Errorf("after eviction = %d, want 10 (L2 hit)", got)
	}
	if h.L1MissRate() <= 0 {
		t.Error("miss rate should be positive")
	}
}

func TestBufferSizeNeverExceedsCapacity(t *testing.T) {
	f := func(ops []uint8) bool {
		b := NewBuffer(4)
		for i, op := range ops {
			addr := int64(op % 16)
			if op%2 == 0 {
				b.Write(addr, int64(i))
			} else {
				b.NoteRead(addr, int64(i), int(op%5)-1)
			}
			if b.Size() > b.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCacheAccessIsDeterministic(t *testing.T) {
	f := func(addrs []int16) bool {
		c1 := NewCache(8, 2, 4)
		c2 := NewCache(8, 2, 4)
		for _, a := range addrs {
			if c1.Access(int64(a)) != c2.Access(int64(a)) {
				return false
			}
		}
		return c1.Hits == c2.Hits && c1.Misses == c2.Misses
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetAssocBufferConflicts(t *testing.T) {
	// 4 sets x 2 ways: addresses congruent mod 4 share a set.
	b := NewSetAssocBuffer(4, 2)
	if b.Capacity() != 8 {
		t.Fatalf("capacity = %d, want 8", b.Capacity())
	}
	if !b.Write(0, 1) || !b.Write(4, 1) {
		t.Fatal("set 0 should hold two entries")
	}
	if b.Write(8, 1) {
		t.Error("third entry in set 0 must conflict")
	}
	// Other sets unaffected.
	if !b.Write(1, 1) || !b.Write(2, 1) {
		t.Error("other sets should accept entries")
	}
	// Existing entries always writable.
	if !b.Write(0, 9) || !b.NoteRead(4, 0, -1) {
		t.Error("existing entries must not conflict")
	}
	// Reset clears set occupancy.
	b.Reset()
	if !b.Write(8, 1) || !b.Write(12, 1) {
		t.Error("Reset should clear set counters")
	}
}

func TestSetAssocBufferNegativeAddr(t *testing.T) {
	b := NewSetAssocBuffer(4, 1)
	if !b.Write(-3, 1) {
		t.Error("negative addresses must map to a valid set")
	}
}

func TestSetAssocDegenerateParams(t *testing.T) {
	b := NewSetAssocBuffer(0, 0)
	if b.Capacity() != 1 {
		t.Errorf("degenerate buffer capacity = %d, want 1", b.Capacity())
	}
	if !b.Write(5, 1) || b.Write(6, 1) {
		t.Error("1-entry buffer semantics broken")
	}
}
