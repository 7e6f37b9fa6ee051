package engine

import (
	"fmt"

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
// serves every machine that shares those four.
func RunSequential(p *ir.Program, cfg Config) (*Result, error) {
	if err := ir.CheckExecutable(p); err != nil {
		return nil, err
	}
	layout := NewLayout(p, nil, 1)
	mem := NewMemory(layout, cfg.Seed)
	hier := specmem.NewHierarchy(1, cfg.Hier)
	res := &Result{Mode: Sequential, Layout: layout, Memory: mem}

	var events int64
	var m *vm.Machine
	for _, r := range p.Regions {
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
				addr := layout.Addr(ev.Ref.Var, ev.Subs, false, 0)
				res.Cycles += hier.Access(0, addr)
				res.Stats.DynRefs++
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
