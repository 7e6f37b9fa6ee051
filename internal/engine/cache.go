package engine

import (
	"sync"

	"refidem/internal/ir"
	"refidem/internal/vm"
)

// regionCode bundles the run-invariant artifacts of one region: compiled
// segment bytecode and the loop index values. Both are immutable after
// construction and safe to share across concurrent runs.
type regionCode struct {
	codes map[int]*vm.Code
	iters []int64
}

// codeCache memoizes regionCode per *ir.Region, so HOSE, CASE and
// sequential runs (and repeated runs across a sweep) compile each region
// exactly once. The cache is bounded: when it outgrows codeCacheLimit the
// oldest half is dropped (regions are identified by pointer, so entries
// for dead programs can never be rehydrated anyway).
const codeCacheLimit = 512

var codeCache struct {
	sync.Mutex
	m     map[*ir.Region]*regionCode
	order []*ir.Region
}

// cachedRegion returns the compiled form of r, compiling on first use.
func cachedRegion(r *ir.Region) *regionCode {
	codeCache.Lock()
	if rc, ok := codeCache.m[r]; ok {
		codeCache.Unlock()
		return rc
	}
	codeCache.Unlock()

	rc := &regionCode{codes: compileRegion(r), iters: r.IndexValues()}

	codeCache.Lock()
	defer codeCache.Unlock()
	if codeCache.m == nil {
		codeCache.m = make(map[*ir.Region]*regionCode)
	}
	if prior, ok := codeCache.m[r]; ok {
		// A concurrent run compiled it first; share that copy.
		return prior
	}
	if len(codeCache.order) >= codeCacheLimit {
		drop := codeCacheLimit / 2
		for _, old := range codeCache.order[:drop] {
			delete(codeCache.m, old)
		}
		codeCache.order = append(codeCache.order[:0], codeCache.order[drop:]...)
	}
	codeCache.m[r] = rc
	codeCache.order = append(codeCache.order, r)
	return rc
}
