package deps

// This file is the collaborative dependence-analysis ensemble (SCAF-style):
// an ordered, cheap-first chain of member analyses cooperating behind the
// one query interface Analyze already exposes.
//
// Member roles and ordering:
//
//   - Range (sound, confidence 1): a value-range/interval pre-filter that
//     bounds every loop and region-index variable independently per side
//     (an interval "box") and applies the Banerjee interval + GCD tests to
//     the resulting single equation per subscript dimension. A refutation
//     at the box level implies a refutation of every exact per-level test
//     (the box relaxation's value set is a superset of each level
//     equation's, its interval hull is exact for independent boxes, and
//     its coefficient gcd divides every level gcd with congruent
//     constants), so the member may short-circuit the whole pair with zero
//     effect on the emitted dependence set. TestRangeMemberConsistency and
//     fuzz stage 8 enforce that claim.
//   - Exact (sound, confidence 1): the existing Banerjee+GCD per-level
//     solver in deps.go. It decides which dependences exist; nothing
//     below it may remove an edge.
//   - MustWriteFirst (speculative): lifts interprocedural must-write-first
//     facts from the callgraph summaries. When every segment of the
//     region re-initializes a scalar through an unconditional leading
//     call before anything else can read it, a cross-segment flow into a
//     read of that scalar almost surely never materializes; the member
//     marks such edges speculatively refuted at a fixed confidence.
//   - Profile (speculative): "observed never-aliases" facts from a
//     sequential replay (engine.CollectProfile): two references whose
//     observed address ranges are disjoint speculatively refute their
//     dependence with a rule-of-succession confidence n/(n+1) derived
//     from the replay counts.
//
// Speculative members never remove edges: the exact solver's dependence
// set is emitted unchanged (so every sound consumer — Algorithm 2, RFW,
// the lemma oracles — is untouched), and speculative answers sit in an
// overlay by edge number, Analysis.Spec: the per-edge probability that the
// dependence does not actually occur. internal/idem folds those
// confidences into a per-reference P(idempotent); the engine's
// Config.SpecThreshold speculation policy acts on that probability.

import (
	"refidem/internal/callgraph"
	"refidem/internal/cfg"
	"refidem/internal/ir"
)

// Member identifies one analysis in the ensemble chain, in query order.
type Member uint8

const (
	// MemberRange is the interval/value-range pre-filter (sound).
	MemberRange Member = iota
	// MemberExact is the per-level Banerjee+GCD solver (sound).
	MemberExact
	// MemberMustWriteFirst is the callgraph must-write-first lift
	// (speculative).
	MemberMustWriteFirst
	// MemberProfile is the replay-derived observed-never-aliases member
	// (speculative).
	MemberProfile
)

var memberNames = [...]string{"range", "exact", "mwf", "profile"}

func (m Member) String() string {
	if int(m) < len(memberNames) {
		return memberNames[m]
	}
	return "member?"
}

// mwfConf is the MustWriteFirst member's fixed confidence. It is < 1 by
// design: the fact is lifted across a call boundary under a syntactic
// leading-call condition, so the member answers speculatively and only
// the P(idempotent) overlay — never the base labels — sees it.
const mwfConf = 0.98

// maxSpecConf caps every speculative confidence strictly below 1, keeping
// "Conf == 1" impossible and "P(idempotent) == 1" an exact-analysis
// certificate.
const maxSpecConf = 0.999999

// SpecEdge is the speculative members' answer for one edge: Conf, when
// > 0, is member By's confidence that the dependence does not actually
// occur. It stays strictly below 1: confidence 1 would be a soundness
// claim only the exact members may make, and they refute by omitting the
// edge.
type SpecEdge struct {
	Conf float64
	By   Member
}

// RefObs is one reference's observed address statistics from a
// sequential replay: the inclusive [Min, Max] range of flat addresses it
// touched and how many dynamic instances were observed.
type RefObs struct {
	Min, Max int64
	Count    int64
}

// Profile holds replay observations, keyed by region and dense reference
// ID (engine.CollectProfile builds one). A nil entry or a zero Count
// makes the profile member abstain for that reference.
type Profile struct {
	Obs map[*ir.Region][]RefObs
}

// Ensemble configures which members join the chain. The zero value (and a
// nil *Ensemble) is the exact solver alone — bit-identical to Analyze.
type Ensemble struct {
	// Range enables the sound interval pre-filter member.
	Range bool
	// MustWriteFirst enables the callgraph lift member; it needs
	// Summaries.
	MustWriteFirst bool
	// Summaries is the program's callgraph analysis, consulted by the
	// MustWriteFirst member.
	Summaries *callgraph.Analysis
	// Profile, when non-nil, enables the observed-never-aliases member.
	Profile *Profile
	// BreakCrossReads deliberately corrupts the ensemble for the fuzz
	// wall's self-test: every dependence into every read that sinks a
	// cross-iteration dependence is marked speculatively refuted at high
	// confidence regardless of the facts, so an engine speculating on
	// P(idempotent) bypasses genuine flow dependences and must be caught
	// by the live-out oracles.
	BreakCrossReads bool
}

// enabled reports whether any member beyond the exact solver is on.
func (e *Ensemble) enabled() bool {
	return e != nil && (e.Range || e.MustWriteFirst || e.Profile != nil || e.BreakCrossReads)
}

// AnalyzeWith computes the may-dependences of the region through the
// member chain configured by ens. The emitted dependence set is always
// exactly Analyze's, and the speculative members' answers fill the
// Spec overlay; a nil or zero ens degenerates to Analyze.
func AnalyzeWith(r *ir.Region, g *cfg.Graph, ens *Ensemble) *Analysis {
	if !ens.enabled() {
		return Analyze(r, g)
	}
	a := &Analysis{Region: r, rangeFilter: ens.Range}
	a.analyze(g)
	var mwfVars map[*ir.Var]bool
	if ens.MustWriteFirst && ens.Summaries != nil {
		mwfVars = mustWriteFirstVars(r, ens.Summaries)
	}
	var obs []RefObs
	if ens.Profile != nil {
		obs = ens.Profile.Obs[r]
	}
	a.Spec = make([]SpecEdge, len(a.All))
	for e, d := range a.All {
		a.Spec[e] = annotate(r.Refs, d, mwfVars, obs)
	}
	if ens.BreakCrossReads {
		a.breakCrossReads()
	}
	return a
}

// rangeRefutesPair is the Range member: one interval-box equation per
// affine subscript dimension, every region-index and loop variable bound
// independently per side. A refutation here implies every exact per-level
// test of the pair refutes (see the file comment), so the caller may skip
// them all.
//
// Soundness of the short-circuit demands care with bounds: the exact
// cross-iteration tests over-approximate the sink side (the distance
// variable d can push the sink's loop value up to Step·(trips-1) past the
// last real iteration), so each side is bounded by the *extended* value
// set {From + Step·k : k in [0, 2·(trips-1)]} — a superset of every
// per-level equation's value set. The interval over that box is then a
// true hull of each exact test's diff range, and the box gcd divides
// every exact test's gcd with congruent constants, so a box refutation
// transfers to all of them.
func (a *Analysis) rangeRefutesPair(r1, r2 *ir.Ref, idx *ir.RegionIndex) bool {
	r := a.Region
	var rlo, rhi int64
	if r.Kind == ir.LoopRegion {
		rlo, rhi = extRange(int64(r.From), int64(r.Step), int64(r.InstanceCount()))
	}
	sa, da := idx.Aff[r1.ID], idx.Aff[r2.ID]
	for dim := 0; dim < len(r1.Subs); dim++ {
		sf, df := sa[dim], da[dim]
		if !sf.OK || !df.OK {
			continue // non-affine: cannot refute this dimension
		}
		var eq acc
		eq.c = sf.Const - df.Const
		if r.Kind == ir.LoopRegion {
			eq.add(sf.Reg, rlo, rhi)
			eq.add(-df.Reg, rlo, rhi)
		}
		addSideLoopsExt(&eq, r1, sf, 1)
		addSideLoopsExt(&eq, r2, df, -1)
		if !eq.mayZero() {
			return true
		}
	}
	return false
}

// extRange returns the interval hull of {from + step·k : k in
// [0, 2·(trips-1)]} — the loop's value range widened by the distance-
// variable slop the exact tests admit.
func extRange(from, step, trips int64) (int64, int64) {
	if trips < 1 {
		return from, from
	}
	last := from + 2*(trips-1)*step
	if from > last {
		return last, from
	}
	return from, last
}

// addSideLoopsExt introduces the reference's own enclosing loops as
// independent solver variables over their extended value ranges.
func addSideLoopsExt(eq *acc, ref *ir.Ref, f ir.AffForm, sign int64) {
	for k := 0; k < len(ref.Ctx.Loops); k++ {
		l := ref.Ctx.Loops[k]
		lo, hi := extRange(int64(l.From), int64(l.Step), int64(l.Trips()))
		eq.add(sign*f.Depth[k], lo, hi)
	}
}

// mustWriteFirstVars collects the scalars that every segment of the
// region re-initializes through an unconditional leading call: the first
// top-level statement of each segment body must be a resolved call whose
// callee summary proves MustWriteFirst, and no call argument may read the
// variable. Loop regions have one segment, so the leading call of the
// body covers every iteration.
func mustWriteFirstVars(r *ir.Region, cg *callgraph.Analysis) map[*ir.Var]bool {
	var out map[*ir.Var]bool
	for i, seg := range r.Segments {
		segVars := map[*ir.Var]bool{}
		if len(seg.Body) > 0 {
			if c, ok := seg.Body[0].(*ir.Call); ok && c.Proc != nil {
				if sum := cg.Summary(c.Proc); sum != nil {
					for v := range sum.MustWriteFirst {
						segVars[v] = true
					}
					for _, arg := range c.Args {
						for _, ref := range ir.ExprRefs(arg) {
							delete(segVars, ref.Var)
						}
					}
				}
			}
		}
		if i == 0 {
			out = segVars
			continue
		}
		for v := range out {
			if !segVars[v] {
				delete(out, v)
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// annotate runs the speculative members on one edge and returns the
// strongest confidence that the dependence does not occur.
func annotate(refs []*ir.Ref, d Dep, mwfVars map[*ir.Var]bool, obs []RefObs) SpecEdge {
	var s SpecEdge
	if dst := refs[d.Dst]; d.Cross && d.Kind == Flow && dst.Access == ir.Read &&
		len(dst.Subs) == 0 && mwfVars[dst.Var] {
		s = SpecEdge{Conf: mwfConf, By: MemberMustWriteFirst}
	}
	if int(d.Src) < len(obs) && int(d.Dst) < len(obs) {
		so, do := obs[d.Src], obs[d.Dst]
		if so.Count > 0 && do.Count > 0 {
			if so.Max < do.Min || do.Max < so.Min {
				n := so.Count
				if do.Count < n {
					n = do.Count
				}
				conf := float64(n) / float64(n+1)
				if conf > maxSpecConf {
					conf = maxSpecConf
				}
				if conf > s.Conf {
					s = SpecEdge{Conf: conf, By: MemberProfile}
				}
			}
		}
	}
	return s
}

// breakCrossReads is the deliberate fault injection behind the fuzz
// driver's -break-ensemble self-test: it marks every dependence into every
// read that sinks a cross-segment dependence speculatively refuted at high
// confidence (reads carry no RFW side condition, so the forced probability
// actually promotes). Honest members never produce these answers; an
// engine speculating on them must be caught by the live-out oracles.
func (a *Analysis) breakCrossReads() {
	for _, ref := range a.Region.Refs {
		if ref.Access != ir.Read || !a.IsCrossSink(ref) {
			continue
		}
		for _, e := range a.SinksAt(ref) {
			a.Spec[e] = SpecEdge{Conf: 0.99, By: MemberProfile}
		}
	}
}
