package engine

import (
	"testing"

	"refidem/internal/idem"
	"refidem/internal/ir"
)

// allocProgram builds a small parallel loop for steady-state allocation
// measurements.
func allocProgram(iters int) *ir.Program {
	p := ir.NewProgram("alloc_probe")
	a := p.AddVar("a", 64)
	b := p.AddVar("b", 64)
	seg := &ir.Segment{ID: 0, Name: "body", Body: []ir.Stmt{
		&ir.Assign{LHS: ir.Wr(a, ir.Idx("i")), RHS: ir.AddE(ir.Rd(b, ir.Idx("i")), ir.C(1))},
	}}
	r := &ir.Region{Name: "loop", Kind: ir.LoopRegion, Index: "i", From: 0, To: iters - 1, Step: 1,
		Segments: []*ir.Segment{seg}}
	r.Finalize()
	p.AddRegion(r)
	return p
}

// runSpecAllocs measures steady-state allocations of one RunSpeculative
// call after warming the pools.
func runSpecAllocs(t *testing.T, iters int) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under the race detector (sync.Pool sheds items)")
	}
	p := allocProgram(iters)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	labs := idem.LabelProgram(p)
	cfg := DefaultConfig()
	run := func() {
		if _, err := RunSpeculative(p, labs, cfg, HOSE); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the runner pool, the region code and the memory template
	return testing.AllocsPerRun(20, run)
}

// TestRunSpeculativeSteadyStateAllocBound guards the engine's pooling:
// steady-state allocations per run are bounded by a small per-run
// constant (result, layout, memory image, hierarchy) and must not scale
// with the number of spawned segment instances. The seed engine spent
// hundreds of allocations on this workload (one machine + one map-backed
// buffer per iteration).
func TestRunSpeculativeSteadyStateAllocBound(t *testing.T) {
	const bound = 60
	if got := runSpecAllocs(t, 64); got > bound {
		t.Errorf("RunSpeculative(64 iters) allocates %.1f times per run, want <= %d", got, bound)
	}
}

// TestRunSpeculativeAllocsIndependentOfIterations is the scaling half of
// the guard: 4x the iterations may not add allocations (instances,
// machines and buffers are recycled, not rebuilt).
func TestRunSpeculativeAllocsIndependentOfIterations(t *testing.T) {
	small := runSpecAllocs(t, 32)
	large := runSpecAllocs(t, 128)
	// The larger run touches the same pooled structures; allow a couple
	// of allocations of slack for map growth inside the shared caches.
	if large > small+4 {
		t.Errorf("allocations grew with iteration count: %.1f at 32 iters vs %.1f at 128 iters", small, large)
	}
}
