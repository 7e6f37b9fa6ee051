package ir

// This file implements the dense region index: a compact numbering of the
// variables, references and segments of one region, computed once by
// Finalize and shared by every analysis pass. The analyses (dataflow,
// deps, rfw, idem) index flat slices and bitsets with these numbers
// instead of hashing pointers, which is what makes the labeling pipeline
// allocation-free in steady state.

// MaxAffDepth is the deepest loop nest the dense affine forms can
// represent. Validate rejects any reference nested deeper, so every
// validated program is in reach of the one dependence solver.
const MaxAffDepth = 8

// AffForm is the dense affine decomposition of one subscript dimension:
//
//	Const + Reg*regionIndex + sum_k Depth[k]*Ctx.Loops[k].Index
//
// with coefficients attached to the loop *positions* of the enclosing
// nest rather than to index names. OK mirrors AffineOf's second result
// on validated programs. A program that skipped Validate may name an
// index that is not an enclosing loop or the region index, or nest a
// reference deeper than MaxAffDepth; such a form is not OK, which the
// analyses treat conservatively, exactly like a subscript that reads
// memory.
type AffForm struct {
	OK    bool
	Const int64
	Reg   int64
	Depth [MaxAffDepth]int64
}

// HasVars reports whether the form has any non-zero coefficient.
func (a AffForm) HasVars() bool {
	if a.Reg != 0 {
		return true
	}
	for _, c := range a.Depth {
		if c != 0 {
			return true
		}
	}
	return false
}

// RegionIndex is the dense numbering of one finalized region.
type RegionIndex struct {
	// Vars lists the referenced variables in first-use order; the slice
	// position is the variable's region-local index.
	Vars []*Var
	// VarOf maps ref ID to the region-local index of its variable.
	VarOf []int32
	// SegOf maps ref ID to the age position of its segment (the position
	// of the segment in Region.Segments, which is age order).
	SegOf []int32
	// NumSegs is len(Region.Segments).
	NumSegs int

	// AddrCertain reports per ref ID that every subscript form is OK:
	// ir.AddrCertain on a validated program.
	AddrCertain []bool
	// Aff holds the dense affine forms of every subscript dimension, per
	// ref ID (nil inner slice for scalar references).
	Aff [][]AffForm

	localOf   map[*Var]int32
	segPos    map[int]int32
	refsByVar [][]int32 // region-local var index -> ref IDs ascending
}

// DenseIndex returns the region's dense index, building it if the region
// was finalized before this accessor existed. Finalize (re)builds the
// index, so the returned value is stale only if the region body was
// mutated without re-running Finalize — which invalidates every analysis
// anyway.
func (r *Region) DenseIndex() *RegionIndex {
	if r.dense == nil {
		r.buildDenseIndex()
	}
	return r.dense
}

// LocalOf returns the region-local index of v, or -1 when the region has
// no reference to v.
func (ix *RegionIndex) LocalOf(v *Var) int32 {
	if i, ok := ix.localOf[v]; ok {
		return i
	}
	return -1
}

// SegPos returns the age position of the segment with the given ID, or -1
// for unknown IDs.
func (ix *RegionIndex) SegPos(segID int) int32 {
	if i, ok := ix.segPos[segID]; ok {
		return i
	}
	return -1
}

// RefsOf returns the IDs of every reference to the variable with the
// given region-local index, ascending. The slice is shared; do not
// mutate.
func (ix *RegionIndex) RefsOf(local int32) []int32 {
	if local < 0 || int(local) >= len(ix.refsByVar) {
		return nil
	}
	return ix.refsByVar[local]
}

func (r *Region) buildDenseIndex() {
	n := len(r.Refs)
	ix := &RegionIndex{
		VarOf:       make([]int32, n),
		SegOf:       make([]int32, n),
		NumSegs:     len(r.Segments),
		AddrCertain: make([]bool, n),
		Aff:         make([][]AffForm, n),
		localOf:     make(map[*Var]int32),
		segPos:      make(map[int]int32, len(r.Segments)),
	}
	for i, s := range r.Segments {
		ix.segPos[s.ID] = int32(i)
	}
	regionIdx := ""
	if r.Kind == LoopRegion {
		regionIdx = r.Index
	}
	counts := make([]int32, 0, 16)
	for _, ref := range r.Refs {
		local, ok := ix.localOf[ref.Var]
		if !ok {
			local = int32(len(ix.Vars))
			ix.localOf[ref.Var] = local
			ix.Vars = append(ix.Vars, ref.Var)
			counts = append(counts, 0)
		}
		counts[local]++
		ix.VarOf[ref.ID] = local
		ix.SegOf[ref.ID] = ix.segPos[ref.SegID]

		certain := true
		var aff []AffForm
		if len(ref.Subs) > 0 {
			aff = make([]AffForm, len(ref.Subs))
			deep := len(ref.Ctx.Loops) > MaxAffDepth // only unvalidated programs
			for d, sub := range ref.Subs {
				if !deep {
					aff[d] = resolveAff(sub, ref.Ctx.Loops, regionIdx)
				}
				if !aff[d].OK {
					certain = false
				}
			}
		}
		ix.Aff[ref.ID] = aff
		ix.AddrCertain[ref.ID] = certain
	}
	// Refs-by-var CSR: one backing array, per-var windows, IDs ascending
	// (Refs is sorted by ID).
	backing := make([]int32, n)
	ix.refsByVar = make([][]int32, len(ix.Vars))
	off := int32(0)
	for v := range ix.refsByVar {
		ix.refsByVar[v] = backing[off : off : off+counts[v]]
		off += counts[v]
	}
	for _, ref := range r.Refs {
		local := ix.VarOf[ref.ID]
		ix.refsByVar[local] = append(ix.refsByVar[local], int32(ref.ID))
	}
	r.dense = ix
}

// resolveAff is the dense mirror of AffineOf: it decomposes e into an
// affine form over the enclosing loop positions (at most MaxAffDepth of
// them) and the region index.
func resolveAff(e Expr, loops []LoopInfo, regionIdx string) AffForm {
	switch x := e.(type) {
	case *Const:
		return AffForm{OK: true, Const: x.Val}
	case *Index:
		for k := range loops {
			if loops[k].Index == x.Name {
				f := AffForm{OK: true}
				f.Depth[k] = 1
				return f
			}
		}
		if regionIdx != "" && x.Name == regionIdx {
			return AffForm{OK: true, Reg: 1}
		}
		// Not an enclosing index: an unvalidated program. The solver
		// cannot bound the name, so the form is not affine.
		return AffForm{}
	case *Load:
		return AffForm{}
	case *Bin:
		l := resolveAff(x.L, loops, regionIdx)
		r := resolveAff(x.R, loops, regionIdx)
		if !l.OK || !r.OK {
			return AffForm{}
		}
		switch x.Op {
		case Add:
			return affFormAdd(l, r, 1)
		case Sub:
			return affFormAdd(l, r, -1)
		case Mul:
			if !l.HasVars() {
				return affFormScale(r, l.Const)
			}
			if !r.HasVars() {
				return affFormScale(l, r.Const)
			}
			return AffForm{}
		default:
			return AffForm{}
		}
	}
	return AffForm{}
}

func affFormAdd(a, b AffForm, sign int64) AffForm {
	out := AffForm{OK: true, Const: a.Const + sign*b.Const, Reg: a.Reg + sign*b.Reg}
	for k := range out.Depth {
		out.Depth[k] = a.Depth[k] + sign*b.Depth[k]
	}
	return out
}

func affFormScale(a AffForm, c int64) AffForm {
	out := AffForm{OK: true, Const: a.Const * c, Reg: a.Reg * c}
	for k := range out.Depth {
		out.Depth[k] = a.Depth[k] * c
	}
	return out
}
