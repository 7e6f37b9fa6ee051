package idem

// Confidence-weighted labeling: the probabilistic overlay on Algorithm 2
// (after "Probabilistic data flow analysis: a linear equational
// approach"). The dependence ensemble (internal/deps, ensemble.go)
// annotates edges in its overlay deps.Analysis.Spec with a speculative
// member's confidence Conf that the dependence does not actually occur.
// This file folds those per-edge confidences into a per-reference
// P(idempotent), stored as a dense float array beside the label bitsets.
//
// The model keeps every *intra-segment certainty* condition of the
// theorems (RFW for writes, the LC2 output-dependence strengthening,
// idempotent intra sources for reads) and relaxes only the
// edge-existence conditions: a cross-segment sink is idempotent exactly
// when its cross edges are all absent, and edges are absent
// independently with the members' stated probabilities. The resulting
// equation system
//
//	P(ref) = Π over d in SinksAt(ref) of factor(d)
//	  factor(cross d)        = Conf(d)
//	  factor(intra d)        = Conf(d) + (1-Conf(d))·P(Src(d))
//
// is monotone in P, so the Gauss-Seidel sweep from 0 converges from
// below; references Algorithm 2 already proved idempotent are pinned at
// exactly 1, and everything else is clamped strictly below 1, keeping
// "P == 1" a sound-analysis certificate. An engine threshold of 1.0
// therefore reproduces the base labeling bit for bit; thresholds below 1
// admit speculative promotions, which the engine's squash machinery (and
// the fuzz wall's live-out oracles) must then police.

import (
	"refidem/internal/callgraph"
	"refidem/internal/cfg"
	"refidem/internal/dataflow"
	"refidem/internal/deps"
	"refidem/internal/ir"
	"refidem/internal/rfw"
)

// maxSpecProb caps P(idempotent) for any reference Algorithm 2 did not
// prove: speculative confidence chains must never round up to certainty.
const maxSpecProb = 0.999999

// probSweeps bounds the fixpoint iteration; intra-segment chains are
// short, so the sweep count is a backstop, not a budget.
const probSweeps = 64

const probEps = 1e-12

// Prob returns P(idempotent) for a reference of the region: the
// probability, under the ensemble's speculative edge confidences, that
// the reference is in fact idempotent. Exactly 1 iff Algorithm 2 proved
// it (results from the non-ensemble entry points degenerate to 1/0 from
// the labels).
func (res *Result) Prob(ref *ir.Ref) float64 {
	if res.probs == nil {
		if res.labels[ref.ID] == Idempotent {
			return 1
		}
		return 0
	}
	return res.probs[ref.ID]
}

// LabelProgramEnsemble labels every region of the program through the
// dependence ensemble configured by ens and computes the per-reference
// P(idempotent) overlay. The base labels are always identical to
// LabelProgram's (speculative members only annotate, never remove,
// dependences). When the MustWriteFirst member is requested without
// summaries, the program's callgraph analysis is run here.
func LabelProgramEnsemble(p *ir.Program, ens deps.Ensemble) map[*ir.Region]*Result {
	if len(p.Procs) > 0 && p.RecursionCycle() != nil {
		out := fallbackLabels(p, callgraph.Analyze(p))
		for _, res := range out {
			res.fillProbsFromLabels()
		}
		return out
	}
	if ens.MustWriteFirst && ens.Summaries == nil {
		ens.Summaries = callgraph.Analyze(p)
	}
	infos := dataflow.AnalyzeProgram(p)
	out := make(map[*ir.Region]*Result, len(p.Regions))
	for _, r := range p.Regions {
		out[r] = labelRegionEnsemble(r, infos[r], &ens)
	}
	return out
}

// labelRegionEnsemble is LabelRegionWithInfo with the ensemble dependence
// pass and the probability overlay: the per-region body of
// LabelProgramEnsemble. A MustWriteFirst member needs ens.Summaries set.
func labelRegionEnsemble(r *ir.Region, info *dataflow.RegionInfo, ens *deps.Ensemble) *Result {
	g := cfg.FromRegion(r)
	da := deps.AnalyzeWith(r, g, ens)
	rf := rfw.Analyze(r, g, info, da)
	res := label(r, g, info, da, rf)
	res.computeProbs()
	return res
}

// fillProbsFromLabels degenerates the overlay to the base labels
// (fallback results carry no dependence information to weight).
func (res *Result) fillProbsFromLabels() {
	res.probs = make([]float64, len(res.labels))
	for i, l := range res.labels {
		if l == Idempotent {
			res.probs[i] = 1
		}
	}
}

// computeProbs runs the monotone fixpoint described in the file comment.
func (res *Result) computeProbs() {
	r := res.Region
	probs := make([]float64, len(r.Refs))
	for _, ref := range r.Refs {
		if res.labels[ref.ID] == Idempotent {
			probs[ref.ID] = 1
		}
	}
	res.probs = probs
	if res.FullyIndependent {
		return // every reference is pinned at 1 already
	}
	for sweep := 0; sweep < probSweeps; sweep++ {
		delta := 0.0
		for _, ref := range r.Refs {
			if res.labels[ref.ID] == Idempotent {
				continue
			}
			p := res.refProb(ref, probs)
			if p > maxSpecProb {
				p = maxSpecProb
			}
			if p > probs[ref.ID] {
				delta += p - probs[ref.ID]
				probs[ref.ID] = p
			}
		}
		if delta < probEps {
			return
		}
	}
}

// refProb evaluates one reference's equation under the current
// assignment. Intra-segment certainty conditions stay hard: a
// non-re-occurring-first write has probability 0 regardless of edge
// confidences, and intra output/flow sources contribute through their
// own P.
func (res *Result) refProb(ref *ir.Ref, probs []float64) float64 {
	if ref.Access == ir.Write && !res.RFW.IsRFW(ref) {
		return 0
	}
	da := res.Deps
	p := 1.0
	for _, e := range da.SinksAt(ref) {
		d := da.All[e]
		var conf float64
		if da.Spec != nil {
			conf = da.Spec[e].Conf
		}
		var f float64
		switch {
		case d.Cross:
			// The edge must be absent.
			f = conf
		case ref.Access == ir.Read:
			// Absent, or present with an idempotent source (Theorem 2).
			f = conf + (1-conf)*probs[d.Src]
		case d.Kind == deps.Output:
			// LC2 strengthening: an intra output source must itself be
			// idempotent (or the edge absent).
			f = conf + (1-conf)*probs[d.Src]
		default:
			// Intra anti dependences into a write carry no condition.
			f = 1
		}
		p *= f
		if p == 0 {
			return 0
		}
	}
	return p
}
