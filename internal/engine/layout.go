package engine

import (
	"sync"
	"sync/atomic"

	"refidem/internal/idem"
	"refidem/internal/ir"
)

// Layout assigns every variable a flat word address range. Shared
// variables live in [0, SharedSize); privatized variables additionally get
// an offset inside a per-processor private stack frame, mirroring the
// paper's runtime, which "allocates a private stack for every segment".
// A variable that is private in some region uses its frame address while
// that region executes and its shared address elsewhere; since private
// variables are dead at region boundaries, the two copies never carry
// values across. A load or store of element i (vm.Event.Index) of v has
// address Base[v]+i, or SharedSize + slot*FrameSize + PrivOffset[v] + i
// in processor slot's frame.
type Layout struct {
	Base       map[*ir.Var]int64
	SharedSize int64
	PrivOffset map[*ir.Var]int64
	FrameSize  int64
	Slots      int
	Total      int64
}

// NewLayout builds the layout for a program. labelings supplies the
// per-region private sets (nil labelings means nothing is privatized,
// e.g. for purely sequential runs of the original program). slots is the
// number of private frames (the processor count).
func NewLayout(p *ir.Program, labelings map[*ir.Region]*idem.Result, slots int) *Layout {
	l := &Layout{
		Base:       make(map[*ir.Var]int64),
		PrivOffset: make(map[*ir.Var]int64),
		Slots:      slots,
	}
	var off int64
	for _, v := range p.Vars {
		l.Base[v] = off
		off += int64(v.Size())
	}
	l.SharedSize = off
	var frame int64
	if labelings != nil {
		for _, v := range p.Vars {
			private := false
			for _, res := range labelings {
				if res.Info.Private(v) {
					private = true
					break
				}
			}
			if private {
				l.PrivOffset[v] = frame
				frame += int64(v.Size())
			}
		}
	}
	l.FrameSize = frame
	if slots < 1 {
		l.Slots = 1
	}
	l.Total = l.SharedSize + l.FrameSize*int64(l.Slots)
	return l
}

// memTemplates caches seeded memory images by (size, seed), so repeated
// runs (sweeps, benchmarks) fill fresh memories with one copy instead of
// re-hashing every word. Bounded to keep pathological seed churn from
// pinning memory.
var (
	memTemplates     sync.Map // [2]int64{total, seed} -> []int64
	memTemplateCount atomic.Int64
	memTemplateLimit = int64(64)
)

// NewMemory allocates and deterministically fills the flat memory image.
// Values are small integers derived from the seed so programs compute on
// non-trivial data while staying far from overflow.
func NewMemory(l *Layout, seed int64) []int64 {
	key := [2]int64{l.Total, seed}
	mem := make([]int64, l.Total)
	if t, ok := memTemplates.Load(key); ok {
		copy(mem, t.([]int64))
		return mem
	}
	for i := range mem {
		mem[i] = seededValue(seed, int64(i))
	}
	if memTemplateCount.Load() < memTemplateLimit {
		t := make([]int64, len(mem))
		copy(t, mem)
		if _, loaded := memTemplates.LoadOrStore(key, t); !loaded {
			memTemplateCount.Add(1)
		}
	}
	return mem
}

// seededValue is a splitmix-style hash reduced to [-8, 8].
func seededValue(seed, addr int64) int64 {
	x := uint64(seed) + uint64(addr)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x%17) - 8
}

// VarValues extracts the current contents of a variable from memory
// (shared addressing).
func VarValues(mem []int64, l *Layout, v *ir.Var) []int64 {
	base := l.Base[v]
	out := make([]int64, v.Size())
	copy(out, mem[base:base+int64(v.Size())])
	return out
}
