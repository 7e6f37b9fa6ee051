package engine

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"refidem/internal/ir"
)

// Compiled code lives exactly as long as its region: the code of more
// than 512 programs, each run once and then dropped, is all collected.
func TestDroppedProgramsFreeTheirCode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector delays finalizers")
	}
	const n = 600
	freed := make(chan struct{}, n) // one send per finalizer
	for i := 0; i < n; i++ {
		p := allocProgram(1 + i%16)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if _, err := RunSequential(p, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(cachedRegion(p.Regions[0]), func(*regionCode) { freed <- struct{}{} })
	}
	runtime.GC()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(10 * time.Second)
	for got := 0; got < n; {
		select {
		case <-freed:
			got++
		case <-tick.C:
			runtime.GC()
		case <-deadline:
			t.Fatalf("the compiled code of %d of %d dropped programs was collected, want all", got, n)
		}
	}
}

// A region whose body changes and is finalized again runs its new body:
// its run equals a fresh program's, not the first body's.
func TestRefinalizedRegionRunsNewBody(t *testing.T) {
	cfg := DefaultConfig()
	run := func(p *ir.Program) []int64 {
		t.Helper()
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		res, err := RunSequential(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Memory
	}
	// bumpBy rewrites allocProgram's a[i] = b[i] + 1 to add k instead.
	bumpBy := func(p *ir.Program, k int64) {
		as := p.Regions[0].Segments[0].Body[0].(*ir.Assign)
		as.RHS = ir.AddE(ir.Rd(p.Vars[1], ir.Idx("i")), ir.C(k))
	}
	p := allocProgram(16)
	before := run(p)
	bumpBy(p, 2)
	p.Regions[0].Finalize()
	fresh := allocProgram(16)
	bumpBy(fresh, 2)
	fresh.Regions[0].Finalize()
	got, want := run(p), run(fresh)
	if !slices.Equal(got, want) {
		t.Errorf("re-finalized region ran %v, want the fresh program's %v", got, want)
	}
	if slices.Equal(got, before) {
		t.Error("the edit changed no word of memory; the test checks nothing")
	}
}
