// Package idem implements the paper's core contribution: reference
// idempotency labeling (Algorithm 2), backed by Theorems 1 and 2.
//
//	Theorem 1 (Idempotent Write): a write reference is idempotent iff it
//	is a re-occurring first write and it is not the sink of a
//	cross-segment dependence.
//
//	Theorem 2 (Idempotent Read): a read reference is idempotent iff it is
//	not the sink of any data dependence, or it is dependent on an
//	idempotent write reference within the same segment.
//
// The package also assigns every idempotent reference to one of the
// paper's §4.1 categories (fully-independent, read-only, private,
// shared-dependent), which the evaluation figures break down.
//
// Labels and categories are stored densely by reference ID (the region
// index numbering) and read through the Label/Category accessors; the
// whole pipeline — dataflow, dependences, RFW, Algorithm 2 — shares one
// code path between LabelRegion and LabelProgram and allocates only the
// returned Results in steady state.
package idem

import (
	"fmt"
	"sync"

	"refidem/internal/callgraph"
	"refidem/internal/cfg"
	"refidem/internal/dataflow"
	"refidem/internal/deps"
	"refidem/internal/ir"
	"refidem/internal/rfw"
)

// Label is the classification the compiler communicates to the hardware.
type Label uint8

const (
	// Speculative references are tracked in speculative storage, exactly
	// as under HOSE.
	Speculative Label = iota
	// Idempotent references bypass speculative storage and access the
	// non-speculative memory hierarchy directly.
	Idempotent
)

func (l Label) String() string {
	if l == Idempotent {
		return "idempotent"
	}
	return "speculative"
}

// Category is the idempotency category of §4.1 of the paper.
type Category uint8

const (
	// CatSpeculative marks references that stay in speculative storage
	// (no idempotency category applies).
	CatSpeculative Category = iota
	// CatFullyIndependent: all references of a region with no
	// cross-segment data or control dependences (Lemma 7).
	CatFullyIndependent
	// CatReadOnly: references to variables with no write in the region.
	CatReadOnly
	// CatPrivate: references to segment-private variables.
	CatPrivate
	// CatSharedDependent: idempotent references to shared variables in
	// regions that do carry dependences — the paper's most advanced
	// category.
	CatSharedDependent
)

var categoryNames = [...]string{
	CatSpeculative:      "speculative",
	CatFullyIndependent: "fully-independent",
	CatReadOnly:         "read-only",
	CatPrivate:          "private",
	CatSharedDependent:  "shared-dependent",
}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("category(%d)", c)
}

// Result is the labeling of one region together with the analysis
// artifacts it was derived from. Labels and categories are dense slices
// indexed by reference ID; use Label/Category/SetLabel to access them.
type Result struct {
	Region *ir.Region
	// FullyIndependent reports that the region carries no cross-segment
	// data or control dependences (Lemma 7 applies).
	FullyIndependent bool
	// Fallback marks results from the conservative interprocedural
	// fallback used when the program's call graph is recursive and
	// therefore cannot be inline-expanded: only reads of variables the
	// whole program (per callgraph summaries) never writes are labeled
	// idempotent, and the analysis artifacts (Info, Deps, RFW, Graph) are
	// nil. Deps, RFW and Graph are nil on any result after
	// DropArtifacts too.
	Fallback bool

	Info  *dataflow.RegionInfo
	Deps  *deps.Analysis
	RFW   *rfw.Result
	Graph *cfg.Graph

	labels []Label
	cats   []Category
	// probs is the confidence-weighted P(idempotent) overlay, computed
	// only by the ensemble entry points (prob.go); nil means the labels
	// are the whole story and Prob degenerates to 1/0.
	probs []float64
}

// DropArtifacts releases the analysis artifacts a labeling was derived
// from (Deps, RFW and Graph) and keeps what running the labeled program
// reads: the labels, the categories, the Prob overlay and Info, whose
// private, read-only and live-out sets place, route and check every
// reference. The artifacts are most of a result's memory. CheckTheorems
// and anything that renders dependences or RFW flags read them, so run
// those first; a non-Fallback result cannot be checked again afterwards.
func (res *Result) DropArtifacts() {
	res.Deps, res.RFW, res.Graph = nil, nil, nil
}

// Label returns the label of a reference of the region.
func (res *Result) Label(ref *ir.Ref) Label { return res.labels[ref.ID] }

// Category returns the idempotency category of a reference.
func (res *Result) Category(ref *ir.Ref) Category { return res.cats[ref.ID] }

// SetLabel overrides the label of a reference. Demoting an idempotent
// reference to speculative is always safe; the ablations and the fuzzer's
// forced-mislabeling mode use this.
func (res *Result) SetLabel(ref *ir.Ref, l Label) { res.labels[ref.ID] = l }

// LabelRegion runs the full pipeline (dataflow, dependences, RFW,
// Algorithm 2) on one region. liveOut overrides the live-out set; pass nil
// to use the region annotation or the conservative default.
func LabelRegion(p *ir.Program, r *ir.Region, liveOut map[*ir.Var]bool) *Result {
	return labelRegion(r, dataflow.AnalyzeRegion(p, r, liveOut), false)
}

// LabelRegionConservative labels a region with direction-less (treated as
// bidirectional) may-dependences, modeling a compiler without
// execution-order direction information. Used by the dependence-direction
// ablation: every reference idempotent here is also idempotent under the
// precise analysis, but not vice versa.
func LabelRegionConservative(p *ir.Program, r *ir.Region, liveOut map[*ir.Var]bool) *Result {
	return labelRegion(r, dataflow.AnalyzeRegion(p, r, liveOut), true)
}

// LabelRegionWithInfo labels one region from a precomputed dataflow
// RegionInfo (as produced by dataflow.AnalyzeProgram or AnalyzeRegion).
// It is the per-region body of LabelProgram: labeling a region through it
// with the RegionInfo a whole-program analysis produced yields exactly
// the Result LabelProgram would have produced for that region. The
// service's label path uses it to label only regions whose analysis
// inputs it has not seen before.
func LabelRegionWithInfo(r *ir.Region, info *dataflow.RegionInfo) *Result {
	return labelRegion(r, info, false)
}

// LabelProgram labels every region of the program, using the inter-region
// liveness pass for live-out sets.
func LabelProgram(p *ir.Program) map[*ir.Region]*Result {
	return labelProgram(p, false)
}

// LabelProgramConservative is LabelProgram under direction-less
// may-dependences (see LabelRegionConservative). The dependence-direction
// ablation uses it so multi-region programs get the same inter-region
// liveness under both analyses.
func LabelProgramConservative(p *ir.Program) map[*ir.Region]*Result {
	return labelProgram(p, true)
}

func labelProgram(p *ir.Program, conservative bool) map[*ir.Region]*Result {
	// Recursive call graphs cannot be inline-expanded, so the region
	// reference sets are incomplete; fall back to summary-driven
	// conservative labels instead of mislabeling. (Validate rejects such
	// programs, so this path only serves direct API users.)
	if len(p.Procs) > 0 && p.RecursionCycle() != nil {
		return fallbackLabels(p, callgraph.Analyze(p))
	}
	infos := dataflow.AnalyzeProgram(p)
	out := make(map[*ir.Region]*Result, len(p.Regions))
	for _, r := range p.Regions {
		out[r] = labelRegion(r, infos[r], conservative)
	}
	return out
}

// fallbackLabels is the conservative interprocedural fallback: the
// bottom-up callgraph summaries decide which variables the program may
// write anywhere (directly or through any call chain, recursive ones
// included — effect sets of cyclic SCCs are still sound unions); reads of
// variables never written are idempotent read-only references, and every
// other reference stays speculative.
func fallbackLabels(p *ir.Program, cg *callgraph.Analysis) map[*ir.Region]*Result {
	written := make(map[*ir.Var]bool)
	for _, r := range p.Regions {
		for _, ref := range r.Refs {
			if ref.Access == ir.Write {
				written[ref.Var] = true
			}
		}
		_, w := cg.RegionEffects(r)
		for v := range w {
			written[v] = true
		}
	}
	out := make(map[*ir.Region]*Result, len(p.Regions))
	for _, r := range p.Regions {
		n := len(r.Refs)
		res := &Result{
			Region:   r,
			Fallback: true,
			labels:   make([]Label, n),
			cats:     make([]Category, n),
		}
		for _, ref := range r.Refs {
			if ref.Access == ir.Read && !written[ref.Var] {
				res.labels[ref.ID] = Idempotent
				res.cats[ref.ID] = CatReadOnly
			}
		}
		out[r] = res
	}
	return out
}

// labelRegion is the one shared pipeline body: segment graph, dependence
// analysis (optionally direction-less), RFW, Algorithm 2.
func labelRegion(r *ir.Region, info *dataflow.RegionInfo, conservative bool) *Result {
	g := cfg.FromRegion(r)
	da := deps.Analyze(r, g)
	if conservative {
		da = deps.Conservative(da)
	}
	rf := rfw.Analyze(r, g, info, da)
	return label(r, g, info, da, rf)
}

// labelScratch pools the Algorithm 2 worklist state.
var labelPool = sync.Pool{New: func() any { return &labelScratch{} }}

type labelScratch struct {
	candidate ir.Bits
}

// label is Algorithm 2.
func label(r *ir.Region, g *cfg.Graph, info *dataflow.RegionInfo, da *deps.Analysis, rf *rfw.Result) *Result {
	idx := r.DenseIndex()
	n := len(r.Refs)
	res := &Result{
		Region: r,
		Info:   info,
		Deps:   da,
		RFW:    rf,
		Graph:  g,
		// Zero values are Speculative/CatSpeculative: initially, all
		// references are labeled speculative.
		labels: make([]Label, n),
		cats:   make([]Category, n),
	}

	// Step 2: fully independent region — label everything idempotent.
	// Dependences on private variables do not count: privatization gives
	// each segment its own storage, which removes them.
	res.FullyIndependent = isFullyIndependent(r, g, info, da, idx)
	if res.FullyIndependent {
		for _, ref := range r.Refs {
			res.labels[ref.ID] = Idempotent
			local := idx.VarOf[ref.ID]
			switch {
			case info.ReadOnlyAt(local):
				res.cats[ref.ID] = CatReadOnly
			case info.PrivateAt(local):
				res.cats[ref.ID] = CatPrivate
			default:
				res.cats[ref.ID] = CatFullyIndependent
			}
		}
		return res
	}

	// Step 3: dependent region.
	// Read-only and private references.
	for _, ref := range r.Refs {
		local := idx.VarOf[ref.ID]
		switch {
		case info.ReadOnlyAt(local):
			res.labels[ref.ID] = Idempotent
			res.cats[ref.ID] = CatReadOnly
		case info.PrivateAt(local):
			res.labels[ref.ID] = Idempotent
			res.cats[ref.ID] = CatPrivate
		}
	}
	// RFW writes that are not cross-segment dependence sinks (Theorem 1),
	// with one strengthening over the paper's statement (found by the
	// property-based test suite, documented in DESIGN.md): a write that is
	// the sink of an *intra-segment output dependence from a speculative
	// write* must also stay speculative. The speculative source's value
	// reaches non-speculative storage at commit time — after the
	// idempotent sink's direct store — so the bypass would reorder the
	// two stores and violate LC2. Lemma 5's proof assumes sequential
	// execution satisfies intra-segment orderings, which holds for the
	// storage bypass only when the earlier write is idempotent too.
	// Demotion iterates to a fixpoint because intra-segment output
	// dependences between inner-loop iterations can run in both
	// directions.
	sc := labelPool.Get().(*labelScratch)
	candidate := ir.GrowBits(sc.candidate, n)
	sc.candidate = candidate
	for _, ref := range r.Refs {
		if ref.Access != ir.Write || res.labels[ref.ID] == Idempotent {
			continue
		}
		if rf.IsRFW(ref) && !da.IsCrossSink(ref) {
			candidate.Set(int32(ref.ID))
		}
	}
	for changed := true; changed; {
		changed = false
		for _, ref := range r.Refs {
			if !candidate.Get(int32(ref.ID)) {
				continue
			}
			for _, e := range da.SinksAt(ref) {
				d := da.All[e]
				if d.Cross || d.Kind != deps.Output {
					continue
				}
				srcOK := candidate.Get(d.Src) || res.labels[d.Src] == Idempotent
				if !srcOK {
					candidate.Clear(int32(ref.ID))
					changed = true
					break
				}
			}
		}
	}
	for _, ref := range r.Refs {
		if candidate.Get(int32(ref.ID)) {
			res.labels[ref.ID] = Idempotent
			res.cats[ref.ID] = CatSharedDependent
		}
	}
	labelPool.Put(sc)
	// Reads: idempotent when not a dependence sink, or when every
	// dependence into them is intra-segment with an idempotent source
	// (Theorem 2; the all-quantifier is required — a read that is covered
	// intra-segment but also the sink of a cross-segment flow must stay
	// speculative by Lemma 3).
	for _, ref := range r.Refs {
		if ref.Access != ir.Read || res.labels[ref.ID] == Idempotent {
			continue
		}
		ok := true
		for _, e := range da.SinksAt(ref) {
			if d := da.All[e]; d.Cross || res.labels[d.Src] != Idempotent {
				ok = false
				break
			}
		}
		if ok {
			res.labels[ref.ID] = Idempotent
			res.cats[ref.ID] = CatSharedDependent
		}
	}
	return res
}

// isFullyIndependent implements the Lemma 7 precondition: no cross-segment
// data dependences (ignoring privatized variables) and no cross-segment
// control dependences (no branches, no data-dependent trip count).
func isFullyIndependent(r *ir.Region, g *cfg.Graph, info *dataflow.RegionInfo, da *deps.Analysis, idx *ir.RegionIndex) bool {
	if g.HasBranch() || r.HasEarlyExit() {
		return false
	}
	for _, d := range da.All {
		if d.Cross && !info.PrivateAt(idx.VarOf[d.Src]) {
			return false
		}
	}
	return true
}

// IdempotentFraction returns the fraction of static references labeled
// idempotent, and the per-category breakdown (fractions of the total).
func (res *Result) IdempotentFraction() (total float64, byCat map[Category]float64) {
	byCat = make(map[Category]float64)
	n := len(res.Region.Refs)
	if n == 0 {
		return 0, byCat
	}
	cnt := 0
	for _, ref := range res.Region.Refs {
		if res.labels[ref.ID] == Idempotent {
			cnt++
			byCat[res.cats[ref.ID]] += 1
		}
	}
	for c := range byCat {
		byCat[c] /= float64(n)
	}
	return float64(cnt) / float64(n), byCat
}

// CheckTheorems independently re-derives every label from Theorems 1 and 2
// and from the lemmas' side conditions, returning a list of violations.
// It is the oracle the property-based tests use: the Algorithm 2
// implementation and this checker must always agree.
func (res *Result) CheckTheorems() []error {
	var errs []error
	r := res.Region
	if res.Fallback {
		// The conservative fallback carries no per-reference analysis to
		// re-derive; the only obligation is soundness of what it did
		// label: idempotent references must be reads (of globally
		// unwritten variables — writes always stay speculative).
		for _, ref := range r.Refs {
			if res.labels[ref.ID] == Idempotent && ref.Access != ir.Read {
				errs = append(errs, fmt.Errorf("fallback labeled non-read %v idempotent", ref))
			}
		}
		return errs
	}
	if res.FullyIndependent {
		// Lemma 7: everything idempotent; and the precondition must hold.
		for _, d := range res.Deps.All {
			if d.Cross && !res.Info.Private(r.Refs[d.Src].Var) {
				errs = append(errs, fmt.Errorf("region marked fully independent but has cross dep %s", res.Deps.Text(d)))
			}
		}
		for _, ref := range r.Refs {
			if res.labels[ref.ID] != Idempotent {
				errs = append(errs, fmt.Errorf("fully independent region has speculative ref %v", ref))
			}
		}
		return errs
	}
	wantWrites := res.expectedWrites()
	for _, ref := range r.Refs {
		got := res.labels[ref.ID] == Idempotent
		want := res.expectedIdempotent(ref, wantWrites)
		if got != want {
			errs = append(errs, fmt.Errorf("ref %v: labeled %v, theorems say idempotent=%v", ref, res.labels[ref.ID], want))
		}
	}
	// Lemma 3: the sink of a cross-segment dependence must be speculative
	// (unless privatization removed the dependence).
	for _, d := range res.Deps.All {
		if !d.Cross || res.Info.Private(r.Refs[d.Dst].Var) {
			continue
		}
		if res.labels[d.Dst] == Idempotent {
			errs = append(errs, fmt.Errorf("cross-segment sink labeled idempotent: %s", res.Deps.Text(d)))
		}
	}
	return errs
}

// expectedWrites independently derives the idempotent write set: Theorem 1
// (RFW and not a cross-segment sink) plus the LC2 strengthening for
// intra-segment output dependences with speculative sources, iterated to a
// fixpoint. The set is a bitset over reference IDs.
func (res *Result) expectedWrites() ir.Bits {
	r := res.Region
	ok := ir.MakeBits(len(r.Refs))
	for _, ref := range r.Refs {
		if ref.Access != ir.Write {
			continue
		}
		if res.Info.ReadOnly(ref.Var) || res.Info.Private(ref.Var) {
			ok.Set(int32(ref.ID))
			continue
		}
		if res.RFW.IsRFW(ref) && !res.Deps.IsCrossSink(ref) {
			ok.Set(int32(ref.ID))
		}
	}
	for changed := true; changed; {
		changed = false
		for _, ref := range r.Refs {
			if !ok.Get(int32(ref.ID)) {
				continue
			}
			if res.Info.Private(ref.Var) || res.Info.ReadOnly(ref.Var) {
				continue
			}
			for _, e := range res.Deps.SinksAt(ref) {
				if d := res.Deps.All[e]; !d.Cross && d.Kind == deps.Output && !ok.Get(d.Src) {
					ok.Clear(int32(ref.ID))
					changed = true
					break
				}
			}
		}
	}
	return ok
}

// expectedIdempotent is the direct theorem-based classification.
func (res *Result) expectedIdempotent(ref *ir.Ref, wantWrites ir.Bits) bool {
	if res.Info.ReadOnly(ref.Var) || res.Info.Private(ref.Var) {
		return true
	}
	if ref.Access == ir.Write {
		return wantWrites.Get(int32(ref.ID))
	}
	for _, e := range res.Deps.SinksAt(ref) {
		d := res.Deps.All[e]
		if d.Cross {
			return false
		}
		if !res.expectedIdempotent(res.Region.Refs[d.Src], wantWrites) {
			return false
		}
	}
	return true
}
