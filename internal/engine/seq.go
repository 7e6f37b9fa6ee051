package engine

import (
	"fmt"

	"refidem/internal/deps"
	"refidem/internal/ir"
	"refidem/internal/specmem"
	"refidem/internal/vm"
)

// RunSequential executes the original (un-privatized) program serially and
// returns the final memory plus cycle count. It is both the correctness
// oracle (Definition 3 compares every execution against it) and the
// uniprocessor baseline the paper's speedups are relative to. It reads
// only cfg's Hier, OpCost, Seed and MaxEvents: the processor count,
// speculative storage and speculation knobs do not change it, so one run
// serves every machine that shares those four. The program must have
// passed ir.Program.Validate.
func RunSequential(p *ir.Program, cfg Config) (*Result, error) {
	return runSequential(p, cfg, nil)
}

// CollectProfile executes the program sequentially, like RunSequential,
// and records, per region and dense reference ID, the inclusive range of
// flat addresses each static reference touched and how many dynamic
// instances ran. The result feeds the ensemble's profile member
// (deps.Profile): two references whose observed ranges are disjoint are
// speculatively "observed to never alias", with a confidence derived from
// the observation counts.
//
// The replay is the ground truth for the profiled input: the paper's
// programs are closed (memory is seeded deterministically from
// Config.Seed), so "observed on this input" and "observed on the
// training input" coincide, and the residual misspeculation risk the
// confidence models is the transfer to other seeds and configs.
func CollectProfile(p *ir.Program, cfg Config) (*deps.Profile, error) {
	prof := &deps.Profile{Obs: make(map[*ir.Region][]deps.RefObs, len(p.Regions))}
	if _, err := runSequential(p, cfg, prof); err != nil {
		return nil, err
	}
	return prof, nil
}

// runSequential is the one sequential interpreter behind RunSequential
// and CollectProfile. When prof is non-nil it also records, per region,
// the observation of every dense reference ID in prof.Obs.
func runSequential(p *ir.Program, cfg Config, prof *deps.Profile) (*Result, error) {
	layout := NewLayout(p, nil, 1)
	mem := NewMemory(layout, cfg.Seed)
	hier := specmem.NewHierarchy(1, cfg.Hier)
	res := &Result{Mode: Sequential, Layout: layout, Memory: mem}

	var events int64
	var m *vm.Machine
	for _, r := range p.Regions {
		var obs []deps.RefObs
		if prof != nil {
			obs = make([]deps.RefObs, len(r.Refs))
			prof.Obs[r] = obs
		}
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
				ev, ops := m.Step()
				res.Cycles += int64(ops) * cfg.OpCost
				res.Stats.Instructions += int64(ops)
				events++
				if events > cfg.MaxEvents {
					return nil, fmt.Errorf("engine: sequential run exceeded %d events", cfg.MaxEvents)
				}
				if ev.Kind == vm.EvDone {
					break
				}
				addr := layout.Base[ev.Ref.Var] + ev.Index
				res.Cycles += hier.Access(0, addr)
				res.Stats.DynRefs++
				if obs != nil {
					o := &obs[ev.Ref.ID]
					if o.Count == 0 || addr < o.Min {
						o.Min = addr
					}
					if o.Count == 0 || addr > o.Max {
						o.Max = addr
					}
					o.Count++
				}
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
	return res, nil
}

// compileRegion compiles every segment of a region once.
func compileRegion(r *ir.Region) map[int]*vm.Code {
	out := make(map[int]*vm.Code, len(r.Segments))
	idx := ""
	if r.Kind == ir.LoopRegion {
		idx = r.Index
	}
	for _, seg := range r.Segments {
		out[seg.ID] = vm.Compile(seg, idx)
	}
	return out
}

func entrySegment(r *ir.Region) int {
	if len(r.Segments) == 0 {
		return -1
	}
	return r.Segments[0].ID
}

// nextSegment resolves a CFG segment's actual successor from the machine's
// branch outcome. It returns -1 at the region exit.
func nextSegment(seg *ir.Segment, m *vm.Machine) int {
	switch len(seg.Succs) {
	case 0:
		return -1
	case 1:
		return seg.Succs[0]
	default:
		if m.Branched && m.BranchVal == 0 {
			return seg.Succs[1]
		}
		return seg.Succs[0]
	}
}
