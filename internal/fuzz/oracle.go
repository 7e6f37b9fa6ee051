// Package fuzz is the differential-fuzzing subsystem behind cmd/fuzz: it
// drives internal/gen scenarios through a wall of oracles — structural
// validation, printer/parser round-trip, theorem conformance of the
// labeling, sequential-vs-HOSE-vs-CASE final-memory equivalence under
// both the default and the buffer-pressure machine, the CASE occupancy
// bound, and the dependence ensemble's conservativeness — then shrinks
// any failing program to a minimal reproducer and records it in a seed
// corpus for byte-exact replay.
package fuzz

import (
	"fmt"
	"strings"

	ccfg "refidem/internal/cfg"
	"refidem/internal/deps"
	"refidem/internal/engine"
	"refidem/internal/idem"
	"refidem/internal/ir"
	"refidem/internal/lang"
)

// Failure kinds, in the order the oracle wall checks them.
const (
	KindValidate  = "validate"
	KindRoundTrip = "roundtrip"
	KindTheorem   = "theorem"
	KindLemma1    = "lemma1-hose"
	KindLemma2    = "lemma2-case"
	KindOccupancy = "occupancy"
	KindPressure  = "pressure"
	KindEnsemble  = "ensemble"
	KindEngine    = "engine-error"
)

// Verdict describes one oracle violation. A nil *Verdict means the
// program passed the whole wall.
type Verdict struct {
	Kind   string
	Detail string
}

func (v *Verdict) String() string {
	if v == nil {
		return "ok"
	}
	return v.Kind + ": " + v.Detail
}

// OracleOptions tunes the wall.
type OracleOptions struct {
	// BreakLabeling deliberately corrupts the labeling before the
	// conformance and execution checks: the first write reference
	// Algorithm 2 labels speculative is forced idempotent. It exists to
	// prove the wall catches mislabelings — a clean tree must fail under
	// it, and the shrinker must reduce the failure to a tiny reproducer.
	BreakLabeling bool
	// BreakEnsemble deliberately corrupts the dependence ensemble before
	// the stage-8 checks: every read sinking a cross-iteration dependence
	// has all its incoming edges annotated "never aliases" at confidence
	// 0.99 (deps.Ensemble.BreakCrossReads), so the threshold engine run
	// promotes past real dependences. The live-out oracle must catch the
	// resulting misspeculation — the ensemble wall's self-test, mirroring
	// BreakLabeling.
	BreakEnsemble bool
}

func fail(kind, format string, args ...any) *Verdict {
	detail := fmt.Sprintf(format, args...)
	detail = strings.ReplaceAll(detail, "\n", "; ")
	return &Verdict{Kind: kind, Detail: detail}
}

// CheckProgram runs one program through the full oracle wall and returns
// the first violation, or nil. The wall, in order:
//
//  1. validate   — structural invariants hold
//  2. roundtrip  — Format() reparses to an identical fingerprint
//  3. theorem    — Algorithm 2 labels match the Theorem 1/2 oracle
//  4. lemma1     — HOSE final live-out memory equals sequential
//  5. lemma2     — CASE final live-out memory equals sequential
//  6. occupancy  — CASE peak speculative occupancy <= HOSE peak
//  7. pressure   — lemmas 1-2 again under a tiny speculative storage
//  8. ensemble   — the collaborative dependence ensemble (range, exact,
//     must-write-first, replay profile) is no less conservative than the
//     exact solver: the dependence set is identical once speculative
//     annotations are stripped, the annotations are well-formed
//     (confidence in [0, 1), member tag set exactly when annotated), the
//     base labels are byte-identical to LabelProgram's, and the
//     P(idempotent) overlay reaches 1 exactly on the proved set. Under
//     BreakEnsemble a deliberately wrong speculative annotation is
//     injected and the threshold CASE run must be caught by the live-out
//     oracle.
func CheckProgram(p *ir.Program, o OracleOptions) *Verdict {
	if err := p.Validate(); err != nil {
		return fail(KindValidate, "%v", err)
	}
	text := p.Format()
	q, err := lang.Parse(text)
	if err != nil {
		return fail(KindRoundTrip, "reparse: %v", err)
	}
	if ir.FingerprintOf(q) != ir.FingerprintOf(p) {
		return fail(KindRoundTrip, "reparsed program has a different fingerprint")
	}
	labs := idem.LabelProgram(p)
	if o.BreakLabeling {
		breakLabeling(p, labs)
	}
	for _, r := range p.Regions {
		if errs := labs[r].CheckTheorems(); len(errs) > 0 {
			return fail(KindTheorem, "region %s: %v", r.Name, errs[0])
		}
	}
	cfg := engine.DefaultConfig()
	seq, err := engine.RunSequential(p, cfg)
	if err != nil {
		return fail(KindEngine, "sequential: %v", err)
	}
	hose, err := engine.RunSpeculative(p, labs, cfg, engine.HOSE)
	if err != nil {
		return fail(KindEngine, "HOSE: %v", err)
	}
	if err := engine.LiveOutMismatch(p, labs, seq, hose); err != nil {
		return fail(KindLemma1, "%v", err)
	}
	caseR, err := engine.RunSpeculative(p, labs, cfg, engine.CASE)
	if err != nil {
		return fail(KindEngine, "CASE: %v", err)
	}
	if err := engine.LiveOutMismatch(p, labs, seq, caseR); err != nil {
		return fail(KindLemma2, "%v", err)
	}
	// The occupancy bound (idempotent bypass can only shrink per-segment
	// speculative footprints) is a statement about the retired reference
	// stream, so it is only enforced on squash-free runs: a misspeculated
	// segment executes on stale values and may touch locations the
	// sequential stream never does, and because bypass changes timing, a
	// doomed CASE execution can get further — and buffer more — than its
	// HOSE counterpart before the squash lands. The fuzzer found exactly
	// that (default profile, seed 1777, minimized into the corpus as
	// occupancy-*.prog): a constant-false CFG branch whose not-taken arm
	// holds a dense write burst that only ever runs as misspeculation.
	if hose.Stats.SquashedSegments == 0 && caseR.Stats.SquashedSegments == 0 &&
		caseR.Stats.PeakSpecOccupancy > hose.Stats.PeakSpecOccupancy {
		return fail(KindOccupancy, "CASE peak %d > HOSE peak %d on squash-free runs",
			caseR.Stats.PeakSpecOccupancy, hose.Stats.PeakSpecOccupancy)
	}
	pc := engine.PressureConfig()
	pseq, err := engine.RunSequential(p, pc)
	if err != nil {
		return fail(KindEngine, "pressure sequential: %v", err)
	}
	for _, mode := range []engine.Mode{engine.HOSE, engine.CASE} {
		res, err := engine.RunSpeculative(p, labs, pc, mode)
		if err != nil {
			return fail(KindEngine, "pressure %v: %v", mode, err)
		}
		if err := engine.LiveOutMismatch(p, labs, pseq, res); err != nil {
			return fail(KindPressure, "%v under pressure: %v", mode, err)
		}
	}
	if v := checkEnsemble(p, labs, cfg, seq, o); v != nil {
		return v
	}
	return nil
}

// checkEnsemble is stage 8 of the wall. labs is the (possibly
// BreakLabeling-corrupted) base labeling; the label-identity check
// recomputes a clean baseline when it was corrupted.
func checkEnsemble(p *ir.Program, labs map[*ir.Region]*idem.Result,
	cfg engine.Config, seq *engine.Result, o OracleOptions) *Verdict {
	replay, err := engine.CollectProfile(p, cfg)
	if err != nil {
		return fail(KindEngine, "profile replay: %v", err)
	}
	ens := deps.Ensemble{
		Range: true, MustWriteFirst: true, Profile: replay,
		BreakCrossReads: o.BreakEnsemble,
	}

	// Conservativeness at the dependence level: member short-circuits and
	// annotations must leave the emitted set field-identical to the exact
	// solver's (the injected break only annotates, so it passes too).
	for _, r := range p.Regions {
		g := ccfg.FromRegion(r)
		exact := deps.Analyze(r, g)
		got := deps.AnalyzeWith(r, g, &deps.Ensemble{
			Range: true, Profile: replay, BreakCrossReads: o.BreakEnsemble,
		})
		if len(got.All) != len(exact.All) {
			return fail(KindEnsemble, "region %s: ensemble emits %d deps, exact %d",
				r.Name, len(got.All), len(exact.All))
		}
		for i := range got.All {
			d := got.All[i]
			if d.SpecConf < 0 || d.SpecConf >= 1 {
				return fail(KindEnsemble, "region %s: dep %v has confidence %v outside [0,1)",
					r.Name, d, d.SpecConf)
			}
			if (d.SpecConf > 0) != (d.SpecBy == deps.MemberMustWriteFirst || d.SpecBy == deps.MemberProfile) {
				return fail(KindEnsemble, "region %s: dep %v annotation conf=%v by=%v is ill-formed",
					r.Name, d, d.SpecConf, d.SpecBy)
			}
			d.SpecConf, d.SpecBy = 0, 0
			if d != exact.All[i] {
				return fail(KindEnsemble, "region %s: dep %d differs from exact: %v vs %v",
					r.Name, i, got.All[i], exact.All[i])
			}
		}
	}

	// Label and overlay invariants: base labels byte-identical, P in
	// [0, 1], P == 1 exactly on the proved-idempotent set, theorems hold.
	elabs := idem.LabelProgramEnsemble(p, ens)
	base := labs
	if o.BreakLabeling {
		base = idem.LabelProgram(p)
	}
	for _, r := range p.Regions {
		eres, bres := elabs[r], base[r]
		for _, ref := range r.Refs {
			if eres.Label(ref) != bres.Label(ref) {
				return fail(KindEnsemble, "region %s: ensemble label %v != %v on %v",
					r.Name, eres.Label(ref), bres.Label(ref), ref)
			}
			pr := eres.Prob(ref)
			if pr < 0 || pr > 1 {
				return fail(KindEnsemble, "region %s: P(%v) = %v outside [0,1]", r.Name, ref, pr)
			}
			if (pr == 1) != (eres.Label(ref) == idem.Idempotent) {
				return fail(KindEnsemble, "region %s: P(%v) = %v but label is %v",
					r.Name, ref, pr, eres.Label(ref))
			}
		}
		if errs := eres.CheckTheorems(); len(errs) > 0 {
			return fail(KindEnsemble, "region %s: %v", r.Name, errs[0])
		}
	}

	// The speculation policy under the live-out oracle. With an honest
	// ensemble the promoted bypass set is backed by replay evidence from
	// the very input being run, so a squash-free execution must match
	// sequential exactly; like the occupancy bound, runs with squashes are
	// exempt (a squashed wrong-path instance's promoted direct stores are
	// not undone, and may legitimately leave stray values). The injected
	// break annotates a genuine dependence, whose misspeculation is
	// invisible to violation detection precisely because the sink was
	// promoted — so under BreakEnsemble the comparison is unconditional,
	// and catching the divergence here is the wall's self-test.
	tcfg := cfg
	tcfg.SpecThreshold = 0.9
	res, err := engine.RunSpeculative(p, elabs, tcfg, engine.CASE)
	if err != nil {
		return fail(KindEngine, "threshold CASE: %v", err)
	}
	if o.BreakEnsemble || res.Stats.SquashedSegments == 0 {
		if err := engine.LiveOutMismatch(p, elabs, seq, res); err != nil {
			return fail(KindEnsemble, "threshold CASE diverged: %v", err)
		}
	}
	return nil
}

// breakLabeling forces the first speculative-labeled write reference
// idempotent, in region and reference-ID order. It returns whether a
// flip happened.
func breakLabeling(p *ir.Program, labs map[*ir.Region]*idem.Result) bool {
	for _, r := range p.Regions {
		lab := labs[r]
		for _, ref := range r.Refs {
			if ref.Access == ir.Write && lab.Label(ref) == idem.Speculative {
				lab.SetLabel(ref, idem.Idempotent)
				return true
			}
		}
	}
	return false
}
