// Package dataflow implements the prerequisite compiler analyses the paper
// assumes from a state-of-the-art parallelizing compiler (§4.2.1): per-
// segment variable summaries (the Write/Read/Null node attributes consumed
// by Algorithm 1), region live-out analysis, read-only variable detection,
// and private (privatizable) variable detection in the style of Tu and
// Padua's array/scalar privatization.
//
// The region analyses run on the dense region index (ir.RegionIndex):
// per-variable state lives in flat slices indexed by region-local variable
// number and results are word-packed bitsets, with all intermediate
// buffers pooled, so AnalyzeRegion allocates only the returned RegionInfo.
package dataflow

import (
	"sync"

	"refidem/internal/ir"
)

// Attr is the per-(segment, variable) attribute of Algorithm 1.
type Attr uint8

const (
	// NullAttr: the segment has no reference to the variable (or only
	// references that neither must-define it nor expose a read; see
	// attrOf).
	NullAttr Attr = iota
	// ReadAttr: some path through the segment reads the variable before
	// any write to it (an exposed read).
	ReadAttr
	// WriteAttr: the variable is defined on all paths through the segment
	// without an exposed read (a must-definition covering every read).
	WriteAttr
)

func (a Attr) String() string {
	switch a {
	case ReadAttr:
		return "Read"
	case WriteAttr:
		return "Write"
	default:
		return "Null"
	}
}

// state tracks, during the structured walk of a segment body, what has
// happened to one variable so far along all paths.
type state struct {
	// mustDef: the variable is written on every path up to this point.
	mustDef bool
	// exposed: some path up to this point reads the variable before any
	// write to it on that path.
	exposed bool
	// referenced: any reference at all was seen.
	referenced bool
}

// merge combines the states of two alternative branches.
func merge(a, b state) state {
	return state{
		mustDef:    a.mustDef && b.mustDef,
		exposed:    a.exposed || b.exposed,
		referenced: a.referenced || b.referenced,
	}
}

// attrOf folds a final walk state into the Algorithm 1 attribute.
func attrOf(st state) Attr {
	switch {
	case !st.referenced:
		return NullAttr
	case st.mustDef && !st.exposed:
		return WriteAttr
	case st.exposed:
		return ReadAttr
	default:
		// Referenced, but neither must-defined nor exposed-read:
		// e.g. a conditional write, or an array with only element
		// writes. Null per Algorithm 1's attribute rules.
		return NullAttr
	}
}

// walker runs the structured per-segment walk over dense state rows.
// Variables resolve through varOf (indexed by ref ID, the region-indexed
// fast path) or byRef (stand-alone segments without assigned IDs).
type walker struct {
	varOf []int32
	byRef map[*ir.Ref]int32
	nv    int
	free  [][]state
}

func (w *walker) local(ref *ir.Ref) int32 {
	if w.varOf != nil {
		return w.varOf[ref.ID]
	}
	return w.byRef[ref]
}

func (w *walker) row() []state {
	if n := len(w.free); n > 0 {
		r := w.free[n-1]
		w.free = w.free[:n-1]
		for i := range r {
			r[i] = state{}
		}
		return r
	}
	return make([]state, w.nv)
}

func (w *walker) release(r []state) { w.free = append(w.free, r) }

func (w *walker) read(ref *ir.Ref, states []state) {
	st := &states[w.local(ref)]
	st.referenced = true
	if !st.mustDef {
		st.exposed = true
	}
}

func (w *walker) write(ref *ir.Ref, states []state) {
	st := &states[w.local(ref)]
	st.referenced = true
	// An element write to an array does not must-define the aggregate.
	if ref.Var.IsScalar() {
		st.mustDef = true
	}
}

// exprReads applies read effects of every load in evaluation order.
func (w *walker) exprReads(e ir.Expr, states []state) {
	switch x := e.(type) {
	case *ir.Load:
		for _, sub := range x.Ref.Subs {
			w.exprReads(sub, states)
		}
		w.read(x.Ref, states)
	case *ir.Bin:
		w.exprReads(x.L, states)
		w.exprReads(x.R, states)
	}
}

func (w *walker) walk(stmts []ir.Stmt, states []state) {
	for _, st := range stmts {
		switch s := st.(type) {
		case *ir.Assign:
			w.exprReads(s.RHS, states)
			for _, sub := range s.LHS.Subs {
				w.exprReads(sub, states)
			}
			w.write(s.LHS, states)
		case *ir.If:
			w.exprReads(s.Cond, states)
			// Analyze both arms from the current state and merge.
			thenSt := w.row()
			elseSt := w.row()
			copy(thenSt, states)
			copy(elseSt, states)
			w.walk(s.Then, thenSt)
			w.walk(s.Else, elseSt)
			for i := range states {
				states[i] = merge(thenSt[i], elseSt[i])
			}
			w.release(thenSt)
			w.release(elseSt)
		case *ir.For:
			trips := ir.LoopInfo{From: s.From, To: s.To, Step: s.Step}.Trips()
			if trips == 0 {
				continue
			}
			// The loop executes at least once (static bounds), so its
			// body's first iteration effects apply unconditionally.
			w.walk(s.Body, states)
		case *ir.ExitRegion:
			w.exprReads(s.Cond, states)
		case *ir.Call:
			// A call executes its expansion unconditionally at the call
			// site; arguments carry no loads, so only the expansion
			// contributes read/write effects.
			w.walk(s.Inlined, states)
		}
	}
}

// RegionInfo aggregates the prerequisite analysis results for one region.
// Per-variable facts are stored densely over the region-local variable
// numbering (plus small spill maps for variables the region never
// references but that annotations or inter-region liveness name); the
// exported methods take *ir.Var for compatibility with external callers.
type RegionInfo struct {
	idx   *ir.RegionIndex
	attrs []Attr  // segPos*numVars + local
	refd  []bool  // segPos*numVars + local: any reference in the segment
	live  ir.Bits // region-local live-out
	ro    ir.Bits // region-local read-only
	priv  ir.Bits // region-local private

	// extraLive/extraPriv hold live-out and private variables with no
	// reference in the region (possible through annotations and the
	// inter-region liveness pass). Usually nil.
	extraLive map[*ir.Var]bool
	extraPriv map[*ir.Var]bool
}

// Index returns the dense region index the info was computed on.
func (info *RegionInfo) Index() *ir.RegionIndex { return info.idx }

// Attrs returns the Algorithm 1 attribute of v in the given segment
// (NullAttr when the segment never references v).
func (info *RegionInfo) Attrs(segID int, v *ir.Var) Attr {
	seg := info.idx.SegPos(segID)
	local := info.idx.LocalOf(v)
	if seg < 0 || local < 0 {
		return NullAttr
	}
	return info.AttrAt(seg, local)
}

// AttrAt is the dense form of Attrs over (segment age position, region-
// local variable index).
func (info *RegionInfo) AttrAt(segPos, local int32) Attr {
	return info.attrs[int(segPos)*len(info.idx.Vars)+int(local)]
}

// RefdAt reports whether the segment at the given age position references
// the region-local variable at all.
func (info *RegionInfo) RefdAt(segPos, local int32) bool {
	return info.refd[int(segPos)*len(info.idx.Vars)+int(local)]
}

// LiveOut reports whether v is live after the region exit.
func (info *RegionInfo) LiveOut(v *ir.Var) bool {
	if local := info.idx.LocalOf(v); local >= 0 {
		return info.live.Get(local)
	}
	return info.extraLive[v]
}

// ReadOnly reports whether v has no write reference in the region.
func (info *RegionInfo) ReadOnly(v *ir.Var) bool {
	return info.ro.Get(info.idx.LocalOf(v))
}

// Private reports whether v is segment-private (declared or inferred).
func (info *RegionInfo) Private(v *ir.Var) bool {
	if local := info.idx.LocalOf(v); local >= 0 {
		return info.priv.Get(local)
	}
	return info.extraPriv[v]
}

// Dense bit accessors over region-local variable indices, used by the
// downstream analyses.

// LiveOutAt reports live-out for a region-local variable index.
func (info *RegionInfo) LiveOutAt(local int32) bool { return info.live.Get(local) }

// ReadOnlyAt reports read-only for a region-local variable index.
func (info *RegionInfo) ReadOnlyAt(local int32) bool { return info.ro.Get(local) }

// PrivateAt reports privacy for a region-local variable index.
func (info *RegionInfo) PrivateAt(local int32) bool { return info.priv.Get(local) }

// scratch pools the walker state reused across AnalyzeRegion calls.
var scratchPool = sync.Pool{New: func() any { return &regionScratch{} }}

type regionScratch struct {
	w       walker
	states  []state
	written ir.Bits
}

// AnalyzeRegion computes the RegionInfo of r. liveOut gives the variables
// live after the region; if nil, the region's LiveOut annotation is used,
// and if that is also absent every referenced non-private variable is
// conservatively considered live.
func AnalyzeRegion(p *ir.Program, r *ir.Region, liveOut map[*ir.Var]bool) *RegionInfo {
	info := analyzeRegionAttrs(r)
	resolveLiveOut(info, p, r, liveOut, nil, nil)
	inferPrivate(info, p, r)
	return info
}

// analyzeRegionAttrs runs the per-segment walks and the read-only scan.
func analyzeRegionAttrs(r *ir.Region) *RegionInfo {
	idx := r.DenseIndex()
	nv := len(idx.Vars)
	info := &RegionInfo{
		idx:   idx,
		attrs: make([]Attr, idx.NumSegs*nv),
		refd:  make([]bool, idx.NumSegs*nv),
		live:  ir.MakeBits(nv),
		ro:    ir.MakeBits(nv),
		priv:  ir.MakeBits(nv),
	}
	sc := scratchPool.Get().(*regionScratch)
	sc.w.varOf = idx.VarOf
	if sc.w.nv < nv {
		sc.w.nv = nv
		sc.w.free = sc.w.free[:0]
	}
	if cap(sc.states) < nv {
		sc.states = make([]state, nv)
	}
	states := sc.states[:nv]

	for segPos, seg := range r.Segments {
		for i := range states {
			states[i] = state{}
		}
		sc.w.walk(seg.Body, states)
		if seg.Branch != nil {
			sc.w.exprReads(seg.Branch, states)
		}
		row := segPos * nv
		for i := range states {
			if states[i].referenced {
				info.refd[row+i] = true
				info.attrs[row+i] = attrOf(states[i])
			}
		}
	}

	// Read-only: no write reference anywhere in the region.
	written := ir.GrowBits(sc.written, nv)
	sc.written = written
	for _, ref := range r.Refs {
		if ref.Access == ir.Write {
			written.Set(idx.VarOf[ref.ID])
		}
	}
	for local := range idx.Vars {
		if !written.Get(int32(local)) {
			info.ro.Set(int32(local))
		}
	}
	scratchPool.Put(sc)
	return info
}

// resolveLiveOut fills the live-out set from, in priority order: the
// caller-provided map, the dense program-liveness bitset (progLive over
// progOf numbering), the region annotation, or the conservative
// everything-referenced default.
func resolveLiveOut(info *RegionInfo, p *ir.Program, r *ir.Region, liveOut map[*ir.Var]bool, progLive ir.Bits, progVars []*ir.Var) {
	idx := info.idx
	switch {
	case liveOut != nil:
		for v, ok := range liveOut {
			if ok {
				info.setLive(v)
			}
		}
	case progLive != nil:
		for i, v := range progVars {
			if progLive.Get(int32(i)) {
				info.setLive(v)
			}
		}
		// The region's own annotation can only add liveness.
		for name, ok := range r.Ann.LiveOut {
			if ok {
				if v := p.Var(name); v != nil {
					info.setLive(v)
				}
			}
		}
	case r.Ann.LiveOut != nil:
		for name, ok := range r.Ann.LiveOut {
			if ok {
				if v := p.Var(name); v != nil {
					info.setLive(v)
				}
			}
		}
	default:
		for local := range idx.Vars {
			info.live.Set(int32(local))
		}
	}
}

func (info *RegionInfo) setLive(v *ir.Var) {
	if local := info.idx.LocalOf(v); local >= 0 {
		info.live.Set(local)
		return
	}
	if info.extraLive == nil {
		info.extraLive = make(map[*ir.Var]bool)
	}
	info.extraLive[v] = true
}

func (info *RegionInfo) setPrivate(v *ir.Var) {
	if local := info.idx.LocalOf(v); local >= 0 {
		info.priv.Set(local)
		return
	}
	if info.extraPriv == nil {
		info.extraPriv = make(map[*ir.Var]bool)
	}
	info.extraPriv[v] = true
}

// inferPrivate applies the declared private annotation, infers
// privatizable variables, and removes private variables from the live-out
// set (they are by construction dead at region exit).
func inferPrivate(info *RegionInfo, p *ir.Program, r *ir.Region) {
	idx := info.idx
	// Private variables: declared ones first.
	for name, ok := range r.Ann.Private {
		if ok {
			if v := p.Var(name); v != nil {
				info.setPrivate(v)
			}
		}
	}
	// Inferred: a variable is privatizable when every segment that
	// references it must-defines it before any read (WriteAttr) and it is
	// not live after the region. Such a variable carries no value across
	// segments, so each segment can use its own copy.
	for local := int32(0); local < int32(len(idx.Vars)); local++ {
		if info.priv.Get(local) || info.live.Get(local) || info.ro.Get(local) {
			continue
		}
		ok := true
		for segPos := int32(0); segPos < int32(idx.NumSegs); segPos++ {
			if !info.RefdAt(segPos, local) {
				continue
			}
			if info.AttrAt(segPos, local) != WriteAttr {
				ok = false
				break
			}
		}
		if ok {
			info.priv.Set(local)
		}
	}
	// Private variables are by construction dead at region exit.
	for local := int32(0); local < int32(len(idx.Vars)); local++ {
		if info.priv.Get(local) {
			info.live.Clear(local)
		}
	}
	for v := range info.extraPriv {
		delete(info.extraLive, v)
	}
}

// progScratch pools the inter-region liveness state of AnalyzeProgram.
var progPool = sync.Pool{New: func() any {
	return &programScratch{progOf: make(map[*ir.Var]int32)}
}}

type programScratch struct {
	progOf   map[*ir.Var]int32
	progVars []*ir.Var
	live     ir.Bits
}

// AnalyzeProgram runs AnalyzeRegion over every region with a backward
// inter-region liveness pass: a variable is live out of region i when a
// later region reads it (conservatively: references it at all) before the
// end of the program, or when the final region's LiveOut annotation (or
// the everything-live default) says so.
func AnalyzeProgram(p *ir.Program) map[*ir.Region]*RegionInfo {
	out := make(map[*ir.Region]*RegionInfo, len(p.Regions))
	sc := progPool.Get().(*programScratch)
	clear(sc.progOf)
	sc.progVars = sc.progVars[:0]
	progIdx := func(v *ir.Var) int32 {
		if i, ok := sc.progOf[v]; ok {
			return i
		}
		i := int32(len(sc.progVars))
		sc.progOf[v] = i
		sc.progVars = append(sc.progVars, v)
		return i
	}
	// Pre-number every variable any region references, so bitsets have a
	// stable width during the backward pass.
	for _, v := range p.Vars {
		progIdx(v)
	}
	sc.live = ir.GrowBits(sc.live, len(sc.progVars))

	last := len(p.Regions) - 1
	for i := last; i >= 0; i-- {
		r := p.Regions[i]
		info := analyzeRegionAttrs(r)
		if i == last {
			resolveLiveOut(info, p, r, nil, nil, nil) // annotation or conservative default
		} else {
			resolveLiveOut(info, p, r, nil, sc.live, sc.progVars)
		}
		inferPrivate(info, p, r)
		out[r] = info
		// Conservative transfer: anything referenced in r or live after r
		// is live before r (no whole-region kill at aggregate
		// granularity).
		for local, v := range info.idx.Vars {
			l := int32(local)
			if info.live.Get(l) || !info.priv.Get(l) {
				sc.live.Set(progIdx(v))
			}
		}
		for v := range info.extraLive {
			sc.live.Set(progIdx(v))
		}
	}
	progPool.Put(sc)
	return out
}
