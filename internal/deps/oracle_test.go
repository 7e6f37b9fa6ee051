package deps

// Brute-force soundness oracle: for randomly generated loop regions with
// purely affine subscripts and no control flow, enumerate the concrete
// execution trace (every reference instance with its evaluated address),
// derive the ground-truth dependences, and check that the may-dependence
// analysis reports a superset, with the right directions and
// cross/intra-segment classification.

import (
	"math/rand"
	"testing"

	"refidem/internal/cfg"
	"refidem/internal/ir"
)

// traceEvent is one executed reference instance.
type traceEvent struct {
	ref  *ir.Ref
	addr int64
	iter int // region iteration number
	seq  int // global execution order
}

// enumerate walks the region body for every iteration, evaluating affine
// subscripts (the generator guarantees there are no loads in subscripts
// and no conditionals).
func enumerate(t *testing.T, r *ir.Region) []traceEvent {
	t.Helper()
	var out []traceEvent
	seq := 0
	evalAffine := func(e ir.Expr, env map[string]int64) int64 {
		a, ok := ir.AffineOf(e)
		if !ok {
			t.Fatalf("oracle requires affine subscripts, got %s", e)
		}
		v := a.Const
		for name, c := range a.Coeff {
			val, ok := env[name]
			if !ok {
				t.Fatalf("unbound index %q", name)
			}
			v += c * val
		}
		return v
	}
	var walk func(stmts []ir.Stmt, env map[string]int64, iter int)
	emit := func(ref *ir.Ref, env map[string]int64, iter int) {
		var addr int64
		if len(ref.Subs) > 0 {
			// Single-dimension arrays in the oracle generator.
			addr = evalAffine(ref.Subs[0], env)
		}
		out = append(out, traceEvent{ref: ref, addr: addr, iter: iter, seq: seq})
		seq++
	}
	walk = func(stmts []ir.Stmt, env map[string]int64, iter int) {
		for _, st := range stmts {
			switch s := st.(type) {
			case *ir.Assign:
				for _, ref := range ir.ExprRefs(s.RHS) {
					emit(ref, env, iter)
				}
				emit(s.LHS, env, iter)
			case *ir.For:
				trips := ir.LoopInfo{From: s.From, To: s.To, Step: s.Step}.Trips()
				for i := 0; i < trips; i++ {
					env[s.Index] = int64(s.From + i*s.Step)
					walk(s.Body, env, iter)
				}
				delete(env, s.Index)
			default:
				t.Fatalf("oracle does not support %T", st)
			}
		}
	}
	for i, idxVal := range r.IndexValues() {
		env := map[string]int64{r.Index: idxVal}
		walk(r.Segments[0].Body, env, i)
	}
	return out
}

// groundTruth derives the set of dependences realized by the trace.
type gtDep struct {
	src, dst *ir.Ref
	cross    bool
}

func groundTruth(events []traceEvent) map[gtDep]bool {
	out := make(map[gtDep]bool)
	// Index events by variable.
	byVar := make(map[*ir.Var][]traceEvent)
	for _, e := range events {
		byVar[e.ref.Var] = append(byVar[e.ref.Var], e)
	}
	for _, evs := range byVar {
		for i := 0; i < len(evs); i++ {
			for j := i + 1; j < len(evs); j++ {
				a, b := evs[i], evs[j] // a executes before b
				if a.addr != b.addr {
					continue
				}
				if a.ref.Access == ir.Read && b.ref.Access == ir.Read {
					continue
				}
				out[gtDep{src: a.ref, dst: b.ref, cross: a.iter != b.iter}] = true
			}
		}
	}
	return out
}

// genOracleRegion builds a random straight-line loop region with affine
// subscripts only.
func genOracleRegion(rng *rand.Rand) (*ir.Program, *ir.Region) {
	p := ir.NewProgram("oracle")
	iters := 3 + rng.Intn(6)
	arrays := make([]*ir.Var, 1+rng.Intn(3))
	for i := range arrays {
		arrays[i] = p.AddVar("a"+string(rune('0'+i)), iters*3+8)
	}
	scalars := make([]*ir.Var, 1+rng.Intn(2))
	for i := range scalars {
		scalars[i] = p.AddVar("s" + string(rune('0'+i)))
	}
	affine := func(indices []string, dim int) ir.Expr {
		if len(indices) > 0 && rng.Intn(3) != 0 {
			idx := indices[rng.Intn(len(indices))]
			scale := 1 + rng.Intn(2)
			off := rng.Intn(5)
			_ = dim
			return ir.AddE(ir.MulE(ir.C(int64(scale)), ir.Idx(idx)), ir.C(int64(off)))
		}
		return ir.C(int64(rng.Intn(dim)))
	}
	ref := func(indices []string, write bool) *ir.Ref {
		if rng.Intn(4) == 0 {
			v := scalars[rng.Intn(len(scalars))]
			if write {
				return ir.Wr(v)
			}
			r := ir.Rd(v).(*ir.Load)
			return r.Ref
		}
		v := arrays[rng.Intn(len(arrays))]
		if write {
			return ir.Wr(v, affine(indices, v.Dims[0]))
		}
		r := ir.Rd(v, affine(indices, v.Dims[0])).(*ir.Load)
		return r.Ref
	}
	var stmts func(n int, indices []string, depth int) []ir.Stmt
	stmts = func(n int, indices []string, depth int) []ir.Stmt {
		var out []ir.Stmt
		for i := 0; i < n; i++ {
			if depth < 2 && rng.Intn(4) == 0 {
				idx := "j" + string(rune('0'+depth))
				out = append(out, &ir.For{
					Index: idx, From: 0, To: rng.Intn(3) + 1, Step: 1,
					Body: stmts(1+rng.Intn(2), append(append([]string{}, indices...), idx), depth+1),
				})
				continue
			}
			rd := ref(indices, false)
			out = append(out, &ir.Assign{
				LHS: ref(indices, true),
				RHS: ir.AddE(&ir.Load{Ref: rd}, ir.C(1)),
			})
		}
		return out
	}
	r := &ir.Region{Name: "r", Kind: ir.LoopRegion, Index: "k", From: 0, To: iters - 1, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: stmts(1+rng.Intn(4), []string{"k"}, 0)}}}
	r.Finalize()
	p.AddRegion(r)
	return p, r
}

// TestAnalysisIsSoundAgainstBruteForce: every ground-truth dependence
// (same address, at least one write, execution ordered) must appear in
// the analysis with matching direction and cross/intra classification.
func TestAnalysisIsSoundAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, r := genOracleRegion(rng)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a := Analyze(r, cfg.FromRegion(r))
		have := make(map[gtDep]bool, len(a.All))
		for _, d := range a.All {
			have[gtDep{src: r.Refs[d.Src], dst: r.Refs[d.Dst], cross: d.Cross}] = true
		}
		for gt := range groundTruth(enumerate(t, r)) {
			if !have[gt] {
				t.Errorf("seed %d: missed dependence %v -> %v (cross=%v)\n%s",
					seed, gt.src, gt.dst, gt.cross, p.Format())
			}
		}
	}
}

// TestAnalysisPrecisionOnAffine: on purely affine programs the analysis
// should not be wildly imprecise — measure the false-positive rate across
// the corpus and require that at least 60% of reported dependences are
// realized by some execution. (This is a precision canary, not a
// soundness requirement; conservative extras are legal.)
func TestAnalysisPrecisionOnAffine(t *testing.T) {
	var reported, realized int
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p, r := genOracleRegion(rng)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		a := Analyze(r, cfg.FromRegion(r))
		gt := groundTruth(enumerate(t, r))
		for _, d := range a.All {
			reported++
			if gt[gtDep{src: r.Refs[d.Src], dst: r.Refs[d.Dst], cross: d.Cross}] {
				realized++
			}
		}
	}
	if reported == 0 {
		t.Fatal("corpus produced no dependences")
	}
	ratio := float64(realized) / float64(reported)
	t.Logf("precision: %d/%d = %.1f%% of reported dependences are realized", realized, reported, ratio*100)
	if ratio < 0.6 {
		t.Errorf("precision %.2f below 0.6 — the interval/GCD tests look broken", ratio)
	}
}
