package engine

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"refidem/internal/gen"
	"refidem/internal/idem"
	"refidem/internal/ir"
	"refidem/internal/workloads"
)

// namedProgram is one corpus program with a name for failure messages.
type namedProgram struct {
	name string
	p    *ir.Program
}

// saturationCorpus is the paper's Figure 6-9 loops plus generated
// programs from every gen profile.
func saturationCorpus(seedsPerProfile int) []namedProgram {
	var progs []namedProgram
	for _, spec := range workloads.NamedLoops() {
		progs = append(progs, namedProgram{spec.String(), spec.Program()})
	}
	for _, prof := range gen.Profiles() {
		for seed := int64(0); seed < int64(seedsPerProfile); seed++ {
			sc := gen.FromProfile(prof, seed*131+7)
			progs = append(progs, namedProgram{sc.String(), sc.Program})
		}
	}
	return progs
}

// TestSaturatedRunIsCapacityInvariant pins SameRunAtCapacity to the
// engine: every run that is saturated at a huge capacity is, in cycles,
// memory and every Stats field, the run at capacities peak, peak+1 and
// 8191, where the predicate holds; at peak-1, where it does not, the run
// overflows. Paper loops and every generator profile, at 1, 2, 3, 4 and 8
// processors, in both modes.
func TestSaturatedRunIsCapacityInvariant(t *testing.T) {
	seeds := 20
	if raceEnabled {
		seeds = 2 // the race job covers the loops and every profile, with fewer seeds
	}
	const huge = 1 << 20
	checked := 0
	for _, np := range saturationCorpus(seeds) {
		name, p := np.name, np.p
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		labs := idem.LabelProgram(p)
		for _, procs := range []int{1, 2, 3, 4, 8} {
			for _, mode := range []Mode{HOSE, CASE} {
				cfg := DefaultConfig()
				cfg.Processors = procs
				cfg.SpecCapacity = huge
				ref, err := RunSpeculative(p, labs, cfg, mode)
				if err != nil {
					t.Fatalf("%s %v %dp: %v", name, mode, procs, err)
				}
				if ref.Stats.Overflows != 0 {
					continue // not saturated: the rule claims nothing
				}
				peak := ref.Stats.PeakSpecOccupancy
				for _, c := range []int{peak, peak + 1, 8191} {
					if c < peak {
						continue
					}
					if !SameRunAtCapacity(cfg, 0, peak, c) {
						t.Fatalf("%s %v %dp: predicate rejects capacity %d >= peak %d", name, mode, procs, c, peak)
					}
					at := cfg
					at.SpecCapacity = c
					got, err := RunSpeculative(p, labs, at, mode)
					if err != nil {
						t.Fatalf("%s %v %dp cap %d: %v", name, mode, procs, c, err)
					}
					if got.Cycles != ref.Cycles || !reflect.DeepEqual(got.Memory, ref.Memory) ||
						!reflect.DeepEqual(got.Stats, ref.Stats) {
						t.Fatalf("%s %v %dp: run at capacity %d differs from the saturated run (peak %d):\n got %d cycles %+v\nwant %d cycles %+v",
							name, mode, procs, c, peak, got.Cycles, got.Stats, ref.Cycles, ref.Stats)
					}
					checked++
				}
				if peak == 0 {
					continue
				}
				if SameRunAtCapacity(cfg, 0, peak, peak-1) {
					t.Fatalf("%s %v %dp: predicate accepts capacity %d below peak %d", name, mode, procs, peak-1, peak)
				}
				at := cfg
				at.SpecCapacity = peak - 1
				below, err := RunSpeculative(p, labs, at, mode)
				if err != nil {
					t.Fatalf("%s %v %dp cap %d: %v", name, mode, procs, peak-1, err)
				}
				if below.Stats.Overflows == 0 {
					t.Fatalf("%s %v %dp: no overflow at capacity %d, one below the saturated peak", name, mode, procs, peak-1)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no saturated run checked")
	}
	t.Logf("%d runs checked against their saturated reference", checked)
}

// TestSameRunAtCapacityScope: the rule holds only for saturated, fully
// associative runs at or above their peak.
func TestSameRunAtCapacityScope(t *testing.T) {
	cfg := DefaultConfig()
	if !SameRunAtCapacity(cfg, 0, 10, 10) || !SameRunAtCapacity(cfg, 0, 0, 1) {
		t.Error("saturated fully associative run must cover capacities >= peak")
	}
	if SameRunAtCapacity(cfg, 0, 10, 9) {
		t.Error("capacity below the peak is covered")
	}
	if SameRunAtCapacity(cfg, 1, 10, 100) {
		t.Error("a run that overflowed is covered")
	}
	sets := cfg
	sets.SpecSets = 4
	if SameRunAtCapacity(sets, 0, 10, 100) {
		t.Error("a set-associative run is covered")
	}
	sets.SpecSets = 1
	if !SameRunAtCapacity(sets, 0, 10, 100) {
		t.Error("SpecSets 1 is fully associative")
	}
}

// bytesPerRun reports the bytes one RunSpeculative call allocates, with
// the collector paused so the runner pool keeps its buffers.
func bytesPerRun(t *testing.T, p *ir.Program, labs map[*ir.Region]*idem.Result, cfg Config, mode Mode) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := RunSpeculative(p, labs, cfg, mode); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLargeCapacityAllocatesByOccupancy is the regression test for
// buffers sized by capacity: a fig2 HOSE run at capacity 2^20 must
// allocate no more bytes than the same run at 128. Speculative buffers
// grow with the locations a segment touches, and pooled buffers survive
// the capacity change.
func TestLargeCapacityAllocatesByOccupancy(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under the race detector (sync.Pool sheds items)")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := workloads.Figure2()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	labs := idem.LabelProgram(p)
	small, large := DefaultConfig(), DefaultConfig()
	large.SpecCapacity = 1 << 20
	bytesPerRun(t, p, labs, small, HOSE) // warm the runner pool and caches
	// Alternate the capacities; the extremes over three rounds keep a
	// runner fetched on another processor's pool from deciding the result.
	var atSmall, atLarge uint64 = 0, math.MaxUint64
	for range 3 {
		atSmall = max(atSmall, bytesPerRun(t, p, labs, small, HOSE))
		atLarge = min(atLarge, bytesPerRun(t, p, labs, large, HOSE))
	}
	if atLarge > atSmall {
		t.Errorf("fig2 HOSE allocates %d bytes at capacity 2^20, %d at 128: storage must follow occupancy, not capacity", atLarge, atSmall)
	}
}
