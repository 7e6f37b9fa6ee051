// Package specmem models the two storages of the paper's execution models:
// the per-segment speculative storage (small, capacity-limited hardware
// buffers that hold a segment's speculative data and reference-tracking
// information) and the non-speculative storage (a conventional L1/L2/DRAM
// memory hierarchy).
package specmem

import "slices"

// Entry is one speculative-storage record: the data value plus the access
// information the speculation engine needs to track dependences (HOSE
// Property 5).
type Entry struct {
	Addr  int64
	Value int64
	// Written reports the segment produced this value.
	Written bool
	// ReadFromBelow reports the segment consumed this location from an
	// ancestor or from non-speculative storage before writing it — the
	// record a later (program-order-earlier) write uses to detect a
	// premature read.
	ReadFromBelow bool
	// SourceAge is the age of the ancestor segment that supplied the
	// value of a ReadFromBelow entry, or -1 when it came from
	// non-speculative storage.
	SourceAge int
}

// slot is one open-addressing index cell. A slot is live only when its
// epoch matches the buffer's current epoch, which lets Reset invalidate
// the whole index in O(1) instead of zeroing it.
type slot struct {
	epoch uint32
	ref   int32
}

// Buffer is one segment's speculative storage. Capacity is in entries; a
// full buffer rejects new locations (speculative storage overflow, the
// paper's key bottleneck). With sets > 1 the buffer is organized as a
// set-associative structure — like the speculative versioning cache or
// the Multiscalar ARB — and a new location is also rejected when its
// address-indexed set is full, even if total capacity remains.
//
// Capacity is only the overflow limit, not the storage size. Entries live
// in a dense store that grows by append, indexed by an epoch-stamped
// open-addressed hash table that doubles when it is half full, so storage
// follows the locations a segment actually touches: a buffer with room for
// a million entries costs what its busiest segment used. Lookups probe
// the index, Reset recycles everything by bumping the epoch, and a reused
// buffer keeps its grown storage, so the simulator's squash/commit-heavy
// steady state never allocates.
//
// Growth can move the store: an Entry pointer returned by Lookup or
// PrematureRead stays valid only until the next insert (a NoteRead or
// Write of a new location) into the same buffer. The engine uses each
// pointer before then, in doLoad and checkViolation.
type Buffer struct {
	capacity int
	sets     int
	ways     int
	entries  []Entry
	slots    []slot
	mask     uint32
	// hashShift selects the high bits of the multiplicative hash that
	// index the slot table (64 - log2(len(slots))).
	hashShift uint32
	epoch     uint32
	setCount  []int32
}

// NewBuffer returns an empty fully-associative buffer with the given
// capacity (entries).
func NewBuffer(capacity int) *Buffer {
	return newBuffer(capacity, 1, 0)
}

// NewSetAssocBuffer returns an empty set-associative buffer with
// sets × ways entries.
func NewSetAssocBuffer(sets, ways int) *Buffer {
	if sets < 1 {
		sets = 1
	}
	if ways < 1 {
		ways = 1
	}
	return newBuffer(sets*ways, sets, ways)
}

// minSlots is the initial slot-table size (a power of two, 1<<minSlotsLog2).
const (
	minSlotsLog2 = 3
	minSlots     = 1 << minSlotsLog2
)

func newBuffer(capacity, sets, ways int) *Buffer {
	b := &Buffer{capacity: capacity, sets: sets, ways: ways, epoch: 1}
	b.slots = make([]slot, minSlots)
	b.mask = minSlots - 1
	b.hashShift = 64 - minSlotsLog2
	if sets > 1 {
		b.setCount = make([]int32, sets)
	}
	return b
}

// SetCapacity changes the overflow limit of a fully associative buffer;
// the entries it holds and its grown storage stay. It lets a pooled
// buffer serve a run on another capacity without being rebuilt.
func (b *Buffer) SetCapacity(capacity int) { b.capacity = capacity }

// probe returns the slot index holding addr (found=true) or the first
// free slot of its chain (found=false). The table is kept at most half
// full, so a free slot always exists. Slots are indexed by the high bits
// of a Fibonacci (multiplicative) hash — one multiply and one shift.
func (b *Buffer) probe(addr int64) (idx uint32, found bool) {
	h := uint32(uint64(addr)*0x9E3779B97F4A7C15>>b.hashShift) & b.mask
	for {
		s := b.slots[h]
		if s.epoch != b.epoch {
			return h, false
		}
		if b.entries[s.ref].Addr == addr {
			return h, true
		}
		h = (h + 1) & b.mask
	}
}

func (b *Buffer) setOf(addr int64) int {
	s := int(addr % int64(b.sets))
	if s < 0 {
		s += b.sets
	}
	return s
}

// canAllocate reports whether a new entry for addr fits.
func (b *Buffer) canAllocate(addr int64) bool {
	if len(b.entries) >= b.capacity {
		return false
	}
	if b.sets > 1 && b.setCount[b.setOf(addr)] >= int32(b.ways) {
		return false
	}
	return true
}

// allocate appends a new entry and indexes it at the (free) slot idx,
// doubling the slot table once it is more than half full.
func (b *Buffer) allocate(idx uint32, e Entry) {
	b.entries = append(b.entries, e)
	b.slots[idx] = slot{epoch: b.epoch, ref: int32(len(b.entries) - 1)}
	if b.sets > 1 {
		b.setCount[b.setOf(e.Addr)]++
	}
	if 2*len(b.entries) > len(b.slots) {
		b.grow()
	}
}

// grow doubles the slot table and re-indexes the live entries.
func (b *Buffer) grow() {
	n := 2 * len(b.slots)
	b.slots = make([]slot, n)
	b.mask = uint32(n - 1)
	b.hashShift--
	for i := range b.entries {
		idx, _ := b.probe(b.entries[i].Addr)
		b.slots[idx] = slot{epoch: b.epoch, ref: int32(i)}
	}
}

// Lookup returns the entry for addr, or nil.
func (b *Buffer) Lookup(addr int64) *Entry {
	idx, ok := b.probe(addr)
	if !ok {
		return nil
	}
	return &b.entries[b.slots[idx].ref]
}

// Size returns the number of occupied entries.
func (b *Buffer) Size() int { return len(b.entries) }

// Capacity returns the configured capacity.
func (b *Buffer) Capacity() int { return b.capacity }

// Full reports whether total capacity is exhausted (set conflicts can
// reject a specific address even when Full is false).
func (b *Buffer) Full() bool { return len(b.entries) >= b.capacity }

// NoteRead records a read of addr that was satisfied from sourceAge (-1
// for non-speculative storage) with the given value. It reports false on
// overflow (no room for a new entry).
func (b *Buffer) NoteRead(addr, value int64, sourceAge int) bool {
	idx, ok := b.probe(addr)
	if ok {
		// The location is already tracked; reads of the segment's own
		// value or repeated reads change nothing.
		e := &b.entries[b.slots[idx].ref]
		if !e.Written && !e.ReadFromBelow {
			e.ReadFromBelow = true
			e.SourceAge = sourceAge
			e.Value = value
		}
		return true
	}
	if !b.canAllocate(addr) {
		return false
	}
	b.allocate(idx, Entry{Addr: addr, Value: value, ReadFromBelow: true, SourceAge: sourceAge})
	return true
}

// Write records a write of value to addr. It reports false on overflow.
func (b *Buffer) Write(addr, value int64) bool {
	idx, ok := b.probe(addr)
	if ok {
		e := &b.entries[b.slots[idx].ref]
		e.Value = value
		e.Written = true
		return true
	}
	if !b.canAllocate(addr) {
		return false
	}
	b.allocate(idx, Entry{Addr: addr, Value: value, Written: true})
	return true
}

// Reset discards all entries without releasing storage (rollback — HOSE
// Property 4 — and recycling on commit/spawn reuse the same buffer).
func (b *Buffer) Reset() {
	b.entries = b.entries[:0]
	b.epoch++
	if b.epoch == 0 {
		// Epoch wrapped (after ~4 billion resets): physically clear the
		// index so stale stamps cannot alias the restarted epoch.
		for i := range b.slots {
			b.slots[i] = slot{}
		}
		b.epoch = 1
	}
	if b.sets > 1 {
		for i := range b.setCount {
			b.setCount[i] = 0
		}
	}
}

// AppendWritten appends the segment-produced entries to dst in address
// order and returns the extended slice. It is the allocation-free commit
// path: the engine passes a reusable scratch slice.
func (b *Buffer) AppendWritten(dst []Entry) []Entry {
	start := len(dst)
	for i := range b.entries {
		if b.entries[i].Written {
			dst = append(dst, b.entries[i])
		}
	}
	tail := dst[start:]
	slices.SortFunc(tail, func(a, b Entry) int {
		switch {
		case a.Addr < b.Addr:
			return -1
		case a.Addr > b.Addr:
			return 1
		default:
			return 0
		}
	})
	return dst
}

// PrematureRead returns the entry proving a premature read of addr
// relative to a write by the segment of age writerAge: the buffer's owner
// consumed the location from memory or from a source no younger than the
// writer, so after the write the consumed value is stale. (Equality counts:
// a value forwarded from the writer's own earlier version is stale once
// the writer stores again.) Returns nil when no violation exists.
func (b *Buffer) PrematureRead(addr int64, writerAge int) *Entry {
	e := b.Lookup(addr)
	if e == nil || !e.ReadFromBelow {
		return nil
	}
	if e.SourceAge <= writerAge {
		return e
	}
	return nil
}
