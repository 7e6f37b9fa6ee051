package engine

import (
	"fmt"

	"refidem/internal/deps"
	"refidem/internal/ir"
	"refidem/internal/vm"
)

// CollectProfile executes the program sequentially (same semantics as
// RunSequential, no timing accounting) and records, per region and dense
// reference ID, the inclusive range of flat addresses each static
// reference touched and how many dynamic instances ran. The result feeds
// the ensemble's profile member (deps.Profile): two references whose
// observed ranges are disjoint are speculatively "observed to never
// alias", with a confidence derived from the observation counts.
//
// The replay is the ground truth for the profiled input: the paper's
// programs are closed (memory is seeded deterministically from
// Config.Seed), so "observed on this input" and "observed on the
// training input" coincide, and the residual misspeculation risk the
// confidence models is the transfer to other seeds and configs.
func CollectProfile(p *ir.Program, cfg Config) (*deps.Profile, error) {
	if err := ir.CheckExecutable(p); err != nil {
		return nil, err
	}
	layout := NewLayout(p, nil, 1)
	mem := NewMemory(layout, cfg.Seed)
	prof := &deps.Profile{Obs: make(map[*ir.Region][]deps.RefObs, len(p.Regions))}

	var events int64
	var m *vm.Machine
	for _, r := range p.Regions {
		obs := make([]deps.RefObs, len(r.Refs))
		prof.Obs[r] = obs
		rc := cachedRegion(r)
		codes, iters := rc.codes, rc.iters
		segID := entrySegment(r)
		iterAt := 0
		for {
			var seg *ir.Segment
			var idxVal int64
			if r.Kind == ir.LoopRegion {
				if iterAt >= len(iters) {
					break
				}
				seg = r.Segments[0]
				idxVal = iters[iterAt]
			} else {
				if segID < 0 {
					break
				}
				seg = r.Seg(segID)
			}
			if m == nil {
				m = vm.NewMachine(codes[seg.ID], idxVal)
			} else {
				m.Reinit(codes[seg.ID], idxVal)
			}
			for {
				ev, _ := m.Step()
				events++
				if events > cfg.MaxEvents {
					return nil, fmt.Errorf("engine: profile run exceeded %d events", cfg.MaxEvents)
				}
				if ev.Kind == vm.EvDone {
					break
				}
				addr := layout.Base[ev.Ref.Var] + ev.Index
				o := &obs[ev.Ref.ID]
				if o.Count == 0 || addr < o.Min {
					o.Min = addr
				}
				if o.Count == 0 || addr > o.Max {
					o.Max = addr
				}
				o.Count++
				if ev.Kind == vm.EvLoad {
					m.ResumeLoad(mem[addr])
				} else {
					mem[addr] = ev.Value
				}
			}
			if r.Kind == ir.LoopRegion {
				if m.ExitRequested {
					break
				}
				iterAt++
			} else {
				segID = nextSegment(seg, m)
				if m.ExitRequested {
					break
				}
			}
		}
	}
	return prof, nil
}
