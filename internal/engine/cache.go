package engine

import (
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

// cachedRegion returns the compiled form of r, compiling it on first use
// and publishing it on r (ir.Region.PublishCode), so HOSE, CASE and
// sequential runs of a region, and repeated runs across a sweep, compile
// it once. The code lives exactly as long as its region: nothing else
// holds it, so it is collected with its program and never keeps a region
// alive, and a re-finalized region is compiled afresh.
func cachedRegion(r *ir.Region) *regionCode {
	if rc, ok := r.Code().(*regionCode); ok {
		return rc
	}
	return r.PublishCode(&regionCode{codes: compileRegion(r), iters: r.IndexValues()}).(*regionCode)
}
