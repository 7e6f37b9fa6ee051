// Package rfw implements the re-occurring-first-write analysis of the
// paper: Definition 5 and Algorithm 1.
//
// A write reference to x in segment Ri is a RFW if, following any rollback
// of Ri, a live x is guaranteed to be written before the end of the
// enclosing region without a preceding read reference. The RFW property is
// what lets a write be labeled idempotent even though it may store a
// temporarily incorrect value during misspeculation: the value is
// guaranteed to be corrected before any final execution consumes it.
//
// Two implementations cover the two region shapes:
//
//   - CFG regions use Algorithm 1 verbatim: per-variable node coloring
//     (White/Black) over the segment graph with the Write/Read/Null
//     attributes from the dataflow package, a breadth-first search, and
//     recursive blackening of the successors of any node that reaches an
//     exposed read through Null nodes.
//
//   - Loop regions use the location-wise specialization of the same path
//     condition on the iteration-chain segment graph: a write is a RFW iff
//     its address is certain (affine in non-speculative loop indices), it
//     executes on every path through the segment, the region has no early
//     exit, and no read of the same location executes before it — either
//     earlier in the same iteration (an intra-segment anti dependence with
//     the write as sink) or in an older iteration (a cross-segment anti
//     dependence with the write as sink, which would be re-executed
//     between the rollback point and the re-occurring write).
//
// Both run on the dense region index: the RFW set is a bitset over
// reference IDs, CFG colorings live in one flat segment-by-variable
// array, and the traversal scratch is pooled, so Analyze allocates only
// the returned Result.
package rfw

import (
	"sync"

	"refidem/internal/cfg"
	"refidem/internal/dataflow"
	"refidem/internal/deps"
	"refidem/internal/ir"
)

// Color is the node color of Algorithm 1.
type Color uint8

const (
	// White marks nodes whose write references to the variable are RFW.
	White Color = iota
	// Black marks nodes whose write references are not RFW.
	Black
)

func (c Color) String() string {
	if c == White {
		return "White"
	}
	return "Black"
}

// Result carries the RFW classification of a region's write references.
type Result struct {
	idx   *ir.RegionIndex
	isRFW ir.Bits
	// colors holds, for CFG regions, the per-variable final node colors
	// (local var × age position), matching Figure 3 of the paper. Nil for
	// loop regions.
	colors []Color
}

// IsRFW reports the RFW status of a write reference.
func (res *Result) IsRFW(ref *ir.Ref) bool { return res.isRFW.Get(int32(ref.ID)) }

// Color returns the final Algorithm 1 color of the segment for the given
// variable (CFG regions; White for unknown variables or segments,
// matching the map zero value of the paper's presentation).
func (res *Result) Color(v *ir.Var, segID int) Color {
	if res.colors == nil {
		return White
	}
	local := res.idx.LocalOf(v)
	seg := res.idx.SegPos(segID)
	if local < 0 || seg < 0 {
		return White
	}
	return res.colors[int(local)*res.idx.NumSegs+int(seg)]
}

// Analyze computes the RFW set of the region. The dataflow info and
// dependence analysis must belong to the same region.
func Analyze(r *ir.Region, g *cfg.Graph, info *dataflow.RegionInfo, da *deps.Analysis) *Result {
	if r.Kind == ir.CFGRegion {
		return analyzeCFG(r, g, info)
	}
	return analyzeLoop(r, da)
}

// cfgScratch pools the per-variable traversal state of analyzeCFG.
var cfgPool = sync.Pool{New: func() any { return &cfgScratch{} }}

type cfgScratch struct {
	seen []bool
	work []int32
}

// analyzeCFG is Algorithm 1.
func analyzeCFG(r *ir.Region, g *cfg.Graph, info *dataflow.RegionInfo) *Result {
	idx := r.DenseIndex()
	nv, ns := len(idx.Vars), idx.NumSegs
	res := &Result{
		idx:    idx,
		isRFW:  ir.MakeBits(len(r.Refs)),
		colors: make([]Color, nv*ns),
	}
	sc := cfgPool.Get().(*cfgScratch)
	if cap(sc.seen) < ns+1 {
		sc.seen = make([]bool, ns+1)
		sc.work = make([]int32, 0, ns+1)
	}
	for local := int32(0); local < int32(nv); local++ {
		colors := res.colors[int(local)*ns : (int(local)+1)*ns]
		colorVariable(g, info, local, colors, sc)
	}
	for _, ref := range r.Refs {
		if ref.Access != ir.Write {
			continue
		}
		// The paper's algorithm assumes the compiler can prove the
		// reference re-executes to the same address; references like
		// K(E) are excluded ("not guaranteed to access the same
		// address").
		local := idx.VarOf[ref.ID]
		if res.colors[int(local)*ns+int(idx.SegOf[ref.ID])] == White && idx.AddrCertain[ref.ID] {
			res.isRFW.Set(int32(ref.ID))
		}
	}
	cfgPool.Put(sc)
	return res
}

// colorVariable runs the coloring of Algorithm 1 for one variable.
// colors is the variable's row (by segment age position), initially all
// White (the zero value).
func colorVariable(g *cfg.Graph, info *dataflow.RegionInfo, local int32, colors []Color, sc *cfgScratch) {
	// Step 1: attributes come from the dataflow info; v_exit is Read iff
	// the variable is live out of R. Step 2: breadth-first search;
	// blacken successors of any White node that reaches a Read node
	// through zero or more Null nodes.
	g.BFS(func(n int) {
		pos := g.Age(n)
		if colors[pos] != White {
			return
		}
		if reachesReadThroughNulls(g, info, local, n, sc) {
			blackenDescendants(g, colors, n)
		}
	})
}

// attrAt returns the Algorithm 1 attribute of the node for the variable,
// with the synthetic exit node Read iff the variable is live out.
func attrAt(g *cfg.Graph, info *dataflow.RegionInfo, local int32, n int) dataflow.Attr {
	if n == cfg.Exit {
		if info.LiveOutAt(local) {
			return dataflow.ReadAttr
		}
		return dataflow.NullAttr
	}
	return info.AttrAt(int32(g.Age(n)), local)
}

// reachesReadThroughNulls reports whether some path starting at the
// successors of n reaches a Read-attributed node traversing only
// Null-attributed nodes. Write-attributed nodes block the search: on any
// path through them the variable is rewritten before it can be read.
func reachesReadThroughNulls(g *cfg.Graph, info *dataflow.RegionInfo, local int32, n int, sc *cfgScratch) bool {
	ns := len(g.Nodes)
	seen := sc.seen[:ns+1]
	for i := range seen {
		seen[i] = false
	}
	work := sc.work[:0]
	for _, s := range g.Succs(n) {
		work = append(work, int32(g.Age(s)))
	}
	for head := 0; head < len(work); head++ {
		mp := work[head]
		if seen[mp] {
			continue
		}
		seen[mp] = true
		m := cfg.Exit
		if int(mp) < ns {
			m = g.Nodes[mp]
		}
		switch attrAt(g, info, local, m) {
		case dataflow.ReadAttr:
			sc.work = work[:0]
			return true
		case dataflow.WriteAttr:
			// Blocked: the node must-defines the variable before any
			// internal read.
		default:
			if m != cfg.Exit {
				for _, s := range g.Succs(m) {
					work = append(work, int32(g.Age(s)))
				}
			}
		}
	}
	sc.work = work[:0]
	return false
}

// blackenDescendants recursively colors all White successors of n Black.
func blackenDescendants(g *cfg.Graph, colors []Color, n int) {
	for _, s := range g.Succs(n) {
		if s == cfg.Exit || colors[g.Age(s)] == Black {
			continue
		}
		colors[g.Age(s)] = Black
		blackenDescendants(g, colors, s)
	}
}

// analyzeLoop is the location-wise RFW test for loop regions.
func analyzeLoop(r *ir.Region, da *deps.Analysis) *Result {
	idx := r.DenseIndex()
	res := &Result{idx: idx, isRFW: ir.MakeBits(len(r.Refs))}
	earlyExit := r.HasEarlyExit()
	for _, ref := range r.Refs {
		if ref.Access != ir.Write {
			continue
		}
		if isLoopRFW(ref, da, earlyExit, idx) {
			res.isRFW.Set(int32(ref.ID))
		}
	}
	return res
}

func isLoopRFW(w *ir.Ref, da *deps.Analysis, earlyExit bool, idx *ir.RegionIndex) bool {
	if earlyExit {
		// A data-dependent trip count makes re-execution of any given
		// iteration impossible to guarantee.
		return false
	}
	if !idx.AddrCertain[w.ID] {
		return false
	}
	if w.Ctx.Conditional {
		// The write is not guaranteed to re-occur on all paths through
		// the segment.
		return false
	}
	for _, d := range da.SinksAt(w) {
		if d.Kind != deps.Anti {
			continue
		}
		// A read of the same location executes before the write: earlier
		// in the same iteration (intra-segment) or in an older iteration,
		// which re-executes between the rollback point and this write
		// (cross-segment). That read consumes the stale value — unless it
		// is itself covered by a must-write to the same location earlier
		// in its own segment execution, in which case every path still
		// rewrites the location before any read (Definition 5 holds).
		if !isCoveredRead(d.Src, da.Region, idx) {
			return false
		}
	}
	return true
}

// isCoveredRead reports whether every execution of the read r is preceded,
// within the same segment execution, by a write to the same location. The
// check is a must-analysis: it looks for an unconditional, certain-address
// write w to the same variable that (a) textually precedes r's innermost
// diverging subtree (structured code executes same-level statements in
// textual order, so all instances of w complete before any instance of r
// within a common-loop iteration), (b) mirrors r's loop nest beyond their
// common prefix with identical ranges, and (c) has subscripts whose affine
// forms equal r's after positionally mapping w's non-common loop indices
// onto r's. Under those conditions, for every address r reads, w wrote the
// same address earlier in the segment.
func isCoveredRead(r *ir.Ref, region *ir.Region, idx *ir.RegionIndex) bool {
	if r.Access != ir.Read || !idx.AddrCertain[r.ID] {
		return false
	}
	for _, wid := range idx.RefsOf(idx.VarOf[r.ID]) {
		w := region.Refs[wid]
		if w.Access != ir.Write || w.SegID != r.SegID {
			continue
		}
		if coversRead(w, r, idx) {
			return true
		}
	}
	return false
}

func coversRead(w, r *ir.Ref, idx *ir.RegionIndex) bool {
	if w.Ctx.Conditional || !idx.AddrCertain[w.ID] || w.Pos >= r.Pos {
		return false
	}
	// Common loop prefix; the remaining chains must mirror each other.
	n := 0
	for n < len(w.Ctx.Loops) && n < len(r.Ctx.Loops) && w.Ctx.Loops[n].ID == r.Ctx.Loops[n].ID {
		n++
	}
	wRest := w.Ctx.Loops[n:]
	rRest := r.Ctx.Loops[n:]
	if len(wRest) != len(rRest) {
		return false
	}
	for i := range wRest {
		if wRest[i].From != rRest[i].From || wRest[i].To != rRest[i].To || wRest[i].Step != rRest[i].Step {
			return false
		}
	}
	// Positional affine equality: the common prefix shares loop IDs and
	// the mirrored chains map depth-to-depth, so the dense forms must
	// match coefficient by coefficient.
	wAff := idx.Aff[w.ID]
	rAff := idx.Aff[r.ID]
	for dim := range wAff {
		if wAff[dim].Const != rAff[dim].Const ||
			wAff[dim].Reg != rAff[dim].Reg ||
			wAff[dim].Depth != rAff[dim].Depth {
			return false
		}
	}
	return true
}
