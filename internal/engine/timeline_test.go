package engine

import (
	"strings"
	"testing"

	"refidem/internal/idem"
	"refidem/internal/ir"
	"refidem/internal/obs"
	"refidem/internal/workloads"
)

// countKinds tallies a timeline's events by kind and by squash cause.
func countKinds(tl *obs.Timeline) (kinds map[obs.EventKind]int64, causes map[obs.Cause]int64) {
	kinds = map[obs.EventKind]int64{}
	causes = map[obs.Cause]int64{}
	for i := range tl.Events {
		e := &tl.Events[i]
		kinds[e.Kind]++
		if e.Kind == obs.EvSquash || e.Kind == obs.EvStall {
			causes[e.Cause]++
		}
	}
	return kinds, causes
}

// TestTimelineDoesNotPerturbRun is the load-bearing invariant: attaching
// a timeline must change nothing about the simulation — not cycles, not
// memory, not a single statistic.
func TestTimelineDoesNotPerturbRun(t *testing.T) {
	for _, mode := range []Mode{HOSE, CASE} {
		p := chain(32)
		labs := idem.LabelProgram(p)
		cfg := DefaultConfig()
		bare, err := RunSpeculative(p, labs, cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Timeline = &obs.Timeline{}
		timed, err := RunSpeculative(p, labs, cfg, mode)
		if err != nil {
			t.Fatal(err)
		}
		if bare.Cycles != timed.Cycles {
			t.Errorf("%v: cycles %d != %d with timeline", mode, bare.Cycles, timed.Cycles)
		}
		if bare.Stats != timed.Stats {
			t.Errorf("%v: stats diverge with timeline:\n%+v\n%+v", mode, bare.Stats, timed.Stats)
		}
		for i := range bare.Memory {
			if bare.Memory[i] != timed.Memory[i] {
				t.Fatalf("%v: memory[%d] %d != %d with timeline", mode, i, bare.Memory[i], timed.Memory[i])
			}
		}
	}
}

// TestTimelineFlowViolationAttribution runs the serial dependence chain
// and checks the squash events carry the violating write with its label.
func TestTimelineFlowViolationAttribution(t *testing.T) {
	p := chain(32)
	labs := idem.LabelProgram(p)
	cfg := DefaultConfig()
	tl := &obs.Timeline{}
	cfg.Timeline = tl
	res, err := RunSpeculative(p, labs, cfg, HOSE)
	if err != nil {
		t.Fatal(err)
	}
	kinds, causes := countKinds(tl)
	if kinds[obs.EvSpawn] == 0 {
		t.Error("no spawn events recorded")
	}
	if kinds[obs.EvCommit] != res.Stats.SegmentsRetired {
		t.Errorf("commit events = %d, want SegmentsRetired = %d", kinds[obs.EvCommit], res.Stats.SegmentsRetired)
	}
	if kinds[obs.EvSquash] != res.Stats.SquashedSegments {
		t.Errorf("squash events = %d, want SquashedSegments = %d", kinds[obs.EvSquash], res.Stats.SquashedSegments)
	}
	if causes[obs.CauseFlowViolation] == 0 {
		t.Fatal("serial chain squashes must be attributed to flow violations")
	}
	if len(tl.Regions) != 1 || tl.Regions[0].Name != "r" {
		t.Fatalf("regions = %+v, want the one chain region", tl.Regions)
	}
	if tl.Regions[0].End < tl.Regions[0].Start {
		t.Fatalf("region never closed: %+v", tl.Regions[0])
	}
	attributed := false
	for i := range tl.Events {
		e := &tl.Events[i]
		if e.Kind != obs.EvSquash || e.Cause != obs.CauseFlowViolation {
			continue
		}
		if e.Dur < 0 {
			t.Fatalf("negative squash duration: %+v", e)
		}
		info, ok := tl.RefInfo(e)
		if !ok {
			t.Fatalf("flow-violation squash with unresolvable ref: %+v", e)
		}
		if !strings.HasPrefix(info.Text, "write x") {
			t.Fatalf("violating ref rendered %q, want the write to x", info.Text)
		}
		if info.Label == "" || info.Category == "" {
			t.Fatalf("ref info missing labeling: %+v", info)
		}
		attributed = true
	}
	if !attributed {
		t.Fatal("no attributed flow-violation squash found")
	}
}

// TestTimelineOverflowStalls checks stall events under capacity pressure.
func TestTimelineOverflowStalls(t *testing.T) {
	p := workloads.ButsDO1(8)
	labs := idem.LabelProgram(p)
	cfg := PressureConfig()
	tl := &obs.Timeline{}
	cfg.Timeline = tl
	res, err := RunSpeculative(p, labs, cfg, HOSE)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Overflows == 0 {
		t.Skip("pressure config no longer overflows this workload")
	}
	kinds, causes := countKinds(tl)
	if kinds[obs.EvStall] == 0 {
		t.Fatal("overflowing run recorded no stall events")
	}
	if causes[obs.CauseOverflow] != kinds[obs.EvStall] {
		t.Errorf("stalls carry cause %v, want all overflow", causes)
	}
	for i := range tl.Events {
		if e := &tl.Events[i]; e.Kind == obs.EvStall && e.Aux <= 0 {
			t.Fatalf("stall without buffer occupancy: %+v", e)
		}
	}
}

// TestTimelineControlAndRevokeSquashes checks the non-flow squash causes:
// speculation past a mispredicted successor (control violation) and past
// a retired early exit (revoke).
func TestTimelineControlAndRevokeSquashes(t *testing.T) {
	p := ir.NewProgram("exit")
	a := p.AddVar("a", 40)
	r := &ir.Region{Name: "r", Kind: ir.LoopRegion, Index: "k", From: 0, To: 31, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(a, ir.Idx("k")), RHS: ir.AddE(ir.Idx("k"), ir.C(100))},
			&ir.ExitRegion{Cond: ir.Op(ir.Ge, ir.Idx("k"), ir.C(6))},
		}}}}
	r.Ann.LiveOut = map[string]bool{"a": true}
	r.Finalize()
	p.AddRegion(r)

	labs := idem.LabelProgram(p)
	cfg := DefaultConfig()
	tl := &obs.Timeline{}
	cfg.Timeline = tl
	res, err := RunSpeculative(p, labs, cfg, HOSE)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ControlViolations == 0 {
		t.Fatal("early exit must register a control violation")
	}
	kinds, causes := countKinds(tl)
	if kinds[obs.EvSquash] != res.Stats.SquashedSegments {
		t.Errorf("squash events = %d, want %d", kinds[obs.EvSquash], res.Stats.SquashedSegments)
	}
	if causes[obs.CauseControlViolation]+causes[obs.CauseEarlyExitRevoke] == 0 {
		t.Fatalf("no control/revoke squash recorded: %v", causes)
	}
}
