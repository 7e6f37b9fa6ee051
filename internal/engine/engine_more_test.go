package engine

import (
	"runtime"
	"testing"

	"refidem/internal/idem"
	"refidem/internal/ir"
	"refidem/internal/workloads"
)

// TestCASEWithoutLabelsEqualsHOSE: when every reference is labeled
// speculative, the CASE engine must behave cycle-for-cycle like HOSE —
// the two models differ only in how labeled references are routed.
func TestCASEWithoutLabelsEqualsHOSE(t *testing.T) {
	for _, mk := range []func() *ir.Program{
		workloads.Figure2,
		func() *ir.Program { return workloads.ButsDO1(8) },
		func() *ir.Program { s, _ := workloads.FindLoop("TOMCATV", "MAIN_DO80"); return s.Program() },
	} {
		p := mk()
		labs := idem.LabelProgram(p)
		for _, res := range labs {
			for _, ref := range res.Region.Refs {
				res.SetLabel(ref, idem.Speculative)
			}
		}
		cfg := DefaultConfig()
		hose, err := RunSpeculative(p, labs, cfg, HOSE)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		caseR, err := RunSpeculative(p, labs, cfg, CASE)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if hose.Cycles != caseR.Cycles {
			t.Errorf("%s: label-free CASE %d cycles != HOSE %d cycles", p.Name, caseR.Cycles, hose.Cycles)
		}
		if hose.Stats.Overflows != caseR.Stats.Overflows ||
			hose.Stats.FlowViolations != caseR.Stats.FlowViolations ||
			hose.Stats.CommittedEntries != caseR.Stats.CommittedEntries {
			t.Errorf("%s: stats diverge: %+v vs %+v", p.Name, hose.Stats, caseR.Stats)
		}
	}
}

// TestSingleProcessorSpeculative: with one processor the speculative
// engine degenerates to serial execution (plus overheads) and must still
// be correct.
func TestSingleProcessorSpeculative(t *testing.T) {
	p := workloads.ButsDO1(8)
	labs := idem.LabelProgram(p)
	cfg := DefaultConfig()
	cfg.Processors = 1
	seq, err := RunSequential(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{HOSE, CASE} {
		res, err := RunSpeculative(p, labs, cfg, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := LiveOutMismatch(p, labs, seq, res); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
		if res.Stats.FlowViolations != 0 {
			t.Errorf("%v: one processor cannot violate dependences, got %d", mode, res.Stats.FlowViolations)
		}
	}
}

// TestTinyCapacity: a 1-entry speculative storage is pathological but
// must stay correct (everything overflows and serializes).
func TestTinyCapacity(t *testing.T) {
	p := workloads.ButsDO1(6)
	labs := idem.LabelProgram(p)
	cfg := DefaultConfig()
	cfg.SpecCapacity = 1
	seq, err := RunSequential(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hose, err := RunSpeculative(p, labs, cfg, HOSE)
	if err != nil {
		t.Fatal(err)
	}
	if err := LiveOutMismatch(p, labs, seq, hose); err != nil {
		t.Error(err)
	}
	if hose.Stats.Overflows == 0 {
		t.Error("1-entry storage must overflow")
	}
}

// TestRunSpeculativeParameterValidation covers the error paths.
func TestRunSpeculativeParameterValidation(t *testing.T) {
	p := workloads.IntroExample()
	labs := idem.LabelProgram(p)
	cfg := DefaultConfig()
	if _, err := RunSpeculative(p, labs, cfg, Sequential); err == nil {
		t.Error("Sequential mode accepted by RunSpeculative")
	}
	cfg.Processors = 0
	if _, err := RunSpeculative(p, labs, cfg, HOSE); err == nil {
		t.Error("zero processors accepted")
	}
	cfg = DefaultConfig()
	if _, err := RunSpeculative(p, nil, cfg, HOSE); err == nil {
		t.Error("missing labelings accepted")
	}
}

// TestMaxEventsGuard: the livelock guard trips instead of hanging.
func TestMaxEventsGuard(t *testing.T) {
	p := workloads.ButsDO1(8)
	labs := idem.LabelProgram(p)
	cfg := DefaultConfig()
	cfg.MaxEvents = 10
	if _, err := RunSpeculative(p, labs, cfg, HOSE); err == nil {
		t.Error("event guard did not trip")
	}
	if _, err := RunSequential(p, cfg); err == nil {
		t.Error("sequential event guard did not trip")
	}
}

// TestLayoutAddressing covers the private-frame addressing and subscript
// wrapping rules.
func TestLayoutAddressing(t *testing.T) {
	p := ir.NewProgram("t")
	a := p.AddVar("a", 4, 4)
	s := p.AddVar("s")
	labsStub := map[*ir.Region]*idem.Result{}
	l := NewLayout(p, labsStub, 2)
	if l.SharedSize != 17 {
		t.Errorf("shared size = %d, want 17", l.SharedSize)
	}
	// Row-major linearization.
	if got := l.Addr(a, []int64{1, 2}, false, 0); got != l.Base[a]+6 {
		t.Errorf("a[1,2] = %d, want base+6", got)
	}
	// Wrapping: subscript 5 on dim 4 wraps to 1; negative wraps upward.
	if got := l.Addr(a, []int64{5, 0}, false, 0); got != l.Base[a]+4 {
		t.Errorf("a[5,0] = %d, want base+4", got)
	}
	if got := l.Addr(a, []int64{-1, 0}, false, 0); got != l.Base[a]+12 {
		t.Errorf("a[-1,0] = %d, want base+12", got)
	}
	if got := l.Addr(s, nil, false, 0); got != l.Base[s] {
		t.Errorf("scalar = %d, want base", got)
	}
}

// TestPrivateFrameSeparation: private variables resolve to per-slot
// frames above the shared area.
func TestPrivateFrameSeparation(t *testing.T) {
	p := ir.NewProgram("t")
	w := p.AddVar("w", 8)
	r := &ir.Region{Name: "r", Kind: ir.LoopRegion, Index: "k", From: 0, To: 3, Step: 1,
		Segments: []*ir.Segment{{ID: 0, Body: []ir.Stmt{
			&ir.Assign{LHS: ir.Wr(w, ir.Idx("k")), RHS: ir.C(1)},
		}}}}
	r.Ann.Private = map[string]bool{"w": true}
	r.Finalize()
	p.AddRegion(r)
	labs := idem.LabelProgram(p)
	l := NewLayout(p, labs, 4)
	if l.FrameSize != 8 || l.Total != l.SharedSize+4*8 {
		t.Errorf("frame layout: frame=%d total=%d shared=%d", l.FrameSize, l.Total, l.SharedSize)
	}
	a0 := l.Addr(w, []int64{0}, true, 0)
	a1 := l.Addr(w, []int64{0}, true, 1)
	if a0 == a1 {
		t.Error("slots must not alias")
	}
	if a0 < l.SharedSize || a1 < l.SharedSize {
		t.Error("frames must live above the shared area")
	}
	// Out-of-range slot clamps to 0.
	if l.Addr(w, []int64{0}, true, 99) != a0 {
		t.Error("slot clamping broken")
	}
}

// TestMemorySeedDeterminism: the initial image is a pure function of the
// seed.
func TestMemorySeedDeterminism(t *testing.T) {
	p := ir.NewProgram("t")
	p.AddVar("a", 64)
	l := NewLayout(p, nil, 1)
	m1 := NewMemory(l, 42)
	m2 := NewMemory(l, 42)
	m3 := NewMemory(l, 43)
	same, diff := true, false
	for i := range m1 {
		if m1[i] != m2[i] {
			same = false
		}
		if m1[i] != m3[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed should give same memory")
	}
	if !diff {
		t.Error("different seeds should differ somewhere")
	}
	for _, v := range m1 {
		if v < -8 || v > 8 {
			t.Errorf("seeded value %d out of [-8,8]", v)
		}
	}
}

// TestLargeMemoryKeepsNoImage: a memory image above memTemplateMaxWords
// is filled afresh and never kept, so a run over a 2M-word layout leaves
// no 16 MB template alive for the life of the process.
func TestLargeMemoryKeepsNoImage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const words, seed = 1 << 21, 0x5eed
	before := liveHeap()
	if got, want := NewMemory(&Layout{Total: words}, seed)[words-1], seededValue(seed, words-1); got != want {
		t.Fatalf("last word = %d, want %d", got, want)
	}
	if grown := int64(liveHeap()) - int64(before); grown > 1<<20 {
		t.Errorf("a %d-word memory image left %d bytes of heap alive", words, grown)
	}
}

// liveHeap returns the bytes of live heap objects once two collections
// have emptied the sync.Pools.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
