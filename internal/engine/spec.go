package engine

import (
	"fmt"
	"sync"

	"refidem/internal/idem"
	"refidem/internal/ir"
	"refidem/internal/obs"
	"refidem/internal/specmem"
	"refidem/internal/vm"
)

// instState is the lifecycle of one segment instance.
type instState uint8

const (
	// stRunning: executing (or ready to execute) on its processor.
	stRunning instState = iota
	// stStalled: blocked on speculative storage overflow until oldest.
	stStalled
	// stDone: finished, waiting to become oldest and commit.
	stDone
	// stRetired: committed.
	stRetired
)

// unknownNext marks an instance whose successor is not yet known; exitNext
// marks the region exit.
const (
	unknownNext = -2
	exitNext    = -1
)

// refTally accumulates per-execution reference counts; it is discarded on
// squash and flushed into Stats at retirement, so the reported fractions
// describe final executions only (matching the paper's measurements).
type refTally struct {
	total  int64
	idem   int64
	promo  int64
	byCat  [8]int64
	instrs int64
}

// instance is one speculative segment execution (one loop iteration or one
// CFG segment). Instances — together with their machine and speculative
// buffer — are pooled on the runner's free list and recycled across
// spawns, regions, and (via runnerPool) whole runs.
type instance struct {
	age    int
	seg    *ir.Segment
	idxVal int64
	m      *vm.Machine
	buf    *specmem.Buffer
	proc   int
	state  instState
	clock  int64
	// spawnTime is the clock at dispatch (reset on squash restart), so
	// commit and squash timeline events can reach back to the start of
	// the execution they end.
	spawnTime int64

	doneTime   int64
	exitReq    bool
	actualNext int
	pendingEv  vm.Event
	hasPending bool
	stallStart int64
	tally      refTally
}

// RunSpeculative executes the program under HOSE or CASE. The program
// must have passed ir.Program.Validate, and labelings must come from
// idem.LabelProgram on the same program: CASE uses the labels to route
// references, and both modes use the private sets to address the
// per-segment private stacks of the privatized program.
func RunSpeculative(p *ir.Program, labelings map[*ir.Region]*idem.Result, cfg Config, mode Mode) (*Result, error) {
	if mode != HOSE && mode != CASE {
		return nil, fmt.Errorf("engine: RunSpeculative wants HOSE or CASE, got %v", mode)
	}
	if cfg.Processors < 1 {
		return nil, fmt.Errorf("engine: need at least one processor")
	}
	layout := NewLayout(p, labelings, cfg.Processors)
	mem := NewMemory(layout, cfg.Seed)
	hier := specmem.NewHierarchy(cfg.Processors, cfg.Hier)
	res := &Result{Mode: mode, Layout: layout, Memory: mem}

	var now int64
	var events int64
	sr := acquireRunner(&cfg, mode, layout, mem, hier, &res.Stats, &events)
	defer sr.release()
	for _, region := range p.Regions {
		lab := labelings[region]
		if lab == nil {
			return nil, fmt.Errorf("engine: no labeling for region %q", region.Name)
		}
		sr.setRegion(region, lab)
		if cfg.Timeline != nil {
			cfg.Timeline.BeginRegion(region.Name, now, timelineRefs(region, lab))
		}
		end, err := sr.run(now)
		if err != nil {
			return nil, fmt.Errorf("engine: region %q: %w", region.Name, err)
		}
		if cfg.Timeline != nil {
			cfg.Timeline.EndRegion(end)
		}
		now = end
	}
	res.Cycles = now
	return res, nil
}

// specRunner executes regions speculatively. One runner is reused across
// all regions of a run, and its allocation-heavy scratch (instances,
// machines, buffers, the window, the ready heap, per-processor state) is
// recycled across runs through runnerPool.
type specRunner struct {
	cfg    *Config
	mode   Mode
	r      *ir.Region
	lab    *idem.Result
	layout *Layout
	mem    []int64
	hier   *specmem.Hierarchy
	stats  *Stats
	codes  map[int]*vm.Code
	iters  []int64
	events *int64

	// window holds the live (non-retired) instances in age order;
	// window[0] has age baseAge. Its length is bounded by the processor
	// count, unlike the full spawn history.
	window  []*instance
	baseAge int
	// nextAge is the age the next spawned instance receives.
	nextAge int
	// lastRetiredNext caches the actual successor of the most recently
	// retired instance, the only fact spawning ever needs from retired
	// history.
	lastRetiredNext int
	stopSpawn       bool
	procFree        []int64
	procInst        []*instance
	commitFree      int64

	// heap is an indexed min-heap of the running instances keyed on
	// (clock, age): the event loop always advances heap[0]. Keys are
	// stored in the nodes so sift comparisons never chase the instance
	// pointers, and positions live in heapPos (indexed by processor — a
	// running instance always occupies exactly one), so sift swaps touch
	// only flat arrays.
	heap []heapNode
	// heapPos[proc] is the heap index of the instance on proc, -1 if not
	// enqueued.
	heapPos []int32
	// heapGen counts heap mutations; the event loop uses it to detect
	// that an advance left the heap untouched and the running instance is
	// still sitting at the root with a stale key.
	heapGen uint64

	// Hot scalars hoisted out of cfg/layout so the per-event path loads
	// them without pointer indirection.
	opCost     int64
	specLat    int64
	maxEvents  int64
	sharedSize int64
	frameSize  int64
	// tl mirrors cfg.Timeline: nil (the default) keeps every emission
	// site down to one pointer check.
	tl *obs.Timeline

	segPrivate map[int]bool
	free       []*instance
	commit     []specmem.Entry

	// refMeta holds the per-reference facts of the current region,
	// indexed by the dense ref ID: the label, category, privatization and
	// address-computation data the hot path would otherwise chase through
	// four maps per memory event.
	refMeta []refMeta

	// specCap/specSets record the buffer geometry of the pooled buffers
	// on the free list (see acquireRunner for what a change costs).
	specCap  int
	specSets int
}

// runnerPool recycles specRunner scratch across runs.
var runnerPool = sync.Pool{
	New: func() any {
		return &specRunner{segPrivate: make(map[int]bool)}
	},
}

// acquireRunner checks a pooled runner out for one run.
func acquireRunner(cfg *Config, mode Mode, layout *Layout, mem []int64, hier *specmem.Hierarchy, stats *Stats, events *int64) *specRunner {
	sr := runnerPool.Get().(*specRunner)
	sr.cfg, sr.mode = cfg, mode
	sr.layout, sr.mem, sr.hier, sr.stats, sr.events = layout, mem, hier, stats, events
	sr.opCost, sr.specLat, sr.maxEvents = cfg.OpCost, cfg.SpecLatency, cfg.MaxEvents
	sr.tl = cfg.Timeline
	sr.sharedSize, sr.frameSize = layout.SharedSize, layout.FrameSize
	if sr.specCap != cfg.SpecCapacity || sr.specSets != cfg.SpecSets {
		// Buffers are sized by occupancy, so a fully associative buffer
		// serves any capacity once its limit moves; a set-associative
		// geometry (sets, or ways = capacity/sets) is rebuilt.
		assoc := cfg.SpecSets <= 1 && sr.specSets <= 1
		for _, in := range sr.free {
			if assoc && in.buf != nil {
				in.buf.SetCapacity(cfg.SpecCapacity)
			} else {
				in.buf = nil
			}
		}
		sr.specCap, sr.specSets = cfg.SpecCapacity, cfg.SpecSets
	}
	if cap(sr.procFree) < cfg.Processors {
		sr.procFree = make([]int64, cfg.Processors)
		sr.procInst = make([]*instance, cfg.Processors)
		sr.heapPos = make([]int32, cfg.Processors)
	}
	sr.procFree = sr.procFree[:cfg.Processors]
	sr.procInst = sr.procInst[:cfg.Processors]
	sr.heapPos = sr.heapPos[:cfg.Processors]
	return sr
}

// release returns the runner's scratch to the pool, dropping references
// to run-scoped state. Pooled instances keep their machine and buffer.
func (sr *specRunner) release() {
	sr.drainWindow()
	for _, in := range sr.free {
		in.seg = nil
	}
	sr.cfg, sr.r, sr.lab = nil, nil, nil
	sr.layout, sr.mem, sr.hier, sr.stats, sr.events = nil, nil, nil, nil, nil
	sr.codes, sr.iters = nil, nil
	sr.tl = nil
	for i := range sr.procInst {
		sr.procInst[i] = nil
	}
	runnerPool.Put(sr)
}

// drainWindow recycles any live instances (left over after an error or a
// finished region) onto the free list.
func (sr *specRunner) drainWindow() {
	for _, in := range sr.window {
		sr.free = append(sr.free, in)
	}
	sr.window = sr.window[:0]
	sr.heap = sr.heap[:0]
	for i := range sr.heapPos {
		sr.heapPos[i] = -1
	}
}

// refMeta is the flattened per-reference metadata of one region under one
// labeling: what four map lookups per event (label, category, private
// set, layout base) collapse into a single slice index. The element
// within the variable comes with the event (vm.Event.Index).
type refMeta struct {
	label   idem.Label
	cat     uint8
	private bool
	// bypass is set when this reference skips speculative storage under
	// the current mode (CASE and labeled idempotent).
	bypass bool
	// promoted is set when bypass came from the SpecThreshold policy
	// rather than a proved label (statistics only).
	promoted bool
	// readOnly is set when the region never writes the variable: no
	// ancestor buffer can hold a Written entry in its address range, so
	// loads skip the ancestor scan outright.
	readOnly bool
	// base is the shared-storage base of the variable, or its offset
	// inside the per-processor private frame when private is set.
	base int64
}

// setRegion points the runner at the next region of the run and rebuilds
// the per-reference metadata table.
func (sr *specRunner) setRegion(r *ir.Region, lab *idem.Result) {
	sr.r, sr.lab = r, lab
	rc := cachedRegion(r)
	sr.codes, sr.iters = rc.codes, rc.iters

	if cap(sr.refMeta) < len(r.Refs) {
		sr.refMeta = make([]refMeta, len(r.Refs))
	}
	sr.refMeta = sr.refMeta[:len(r.Refs)]
	for _, ref := range r.Refs {
		md := &sr.refMeta[ref.ID]
		md.label = lab.Label(ref)
		md.cat = uint8(lab.Category(ref))
		md.private = lab.Info.Private(ref.Var)
		md.bypass = sr.mode == CASE && md.label == idem.Idempotent
		md.promoted = false
		if sr.mode == CASE && !md.bypass && sr.cfg.SpecThreshold > 0 &&
			lab.Prob(ref) >= sr.cfg.SpecThreshold {
			// Confidence-driven promotion: the ensemble could not prove the
			// reference idempotent but considers the blocking dependences
			// absent with probability past the threshold. Misspeculation is
			// the engine's (and the fuzz wall's) problem from here on.
			md.bypass = true
			md.promoted = true
		}
		md.readOnly = lab.Info.ReadOnly(ref.Var)
		if md.private {
			md.base = sr.layout.PrivOffset[ref.Var]
		} else {
			md.base = sr.layout.Base[ref.Var]
		}
	}
}

func (sr *specRunner) run(start int64) (int64, error) {
	sr.drainWindow()
	for i := range sr.procFree {
		sr.procFree[i] = start
		sr.procInst[i] = nil
	}
	sr.commitFree = start
	for i := range sr.heapPos {
		sr.heapPos[i] = -1
	}
	sr.baseAge, sr.nextAge = 0, 0
	sr.lastRetiredNext = unknownNext
	sr.stopSpawn = false
	clear(sr.segPrivate)
	for _, seg := range sr.r.Segments {
		sr.segPrivate[seg.ID] = sr.segmentUsesPrivate(seg)
	}
	sr.spawnAll()
	events := *sr.events
outer:
	for {
		inst := sr.heapMin()
		if inst == nil {
			if len(sr.window) == 0 && sr.stopSpawn {
				break
			}
			*sr.events = events
			return 0, fmt.Errorf("no runnable instance (oldest=%d insts=%d stop=%v)", sr.baseAge, sr.nextAge, sr.stopSpawn)
		}
		// Advance the minimum instance, and keep advancing it while the
		// heap stays untouched and its growing clock still beats the
		// root's children — the common run of consecutive events on one
		// processor costs no sift and no re-pick.
		for {
			events++
			if events > sr.maxEvents {
				*sr.events = events
				return 0, fmt.Errorf("exceeded %d events (livelock?)", sr.maxEvents)
			}
			gen := sr.heapGen
			sr.advance(inst)
			if inst.state != stRunning || sr.heapGen != gen {
				// The instance blocked, or the heap changed under it
				// (squash, stall, spawn): restore its key and re-pick.
				if inst.state == stRunning {
					if p := sr.heapPos[inst.proc]; p >= 0 {
						sr.heapFixAt(int(p))
					}
				}
				continue outer
			}
			// Heap untouched: inst is still at the root with a stale key.
			h := sr.heap
			nk := heapNode{clock: inst.clock, age: int32(inst.age)}
			h[0].clock = inst.clock
			if (len(h) > 1 && h[1].less(nk)) || (len(h) > 2 && h[2].less(nk)) {
				sr.heapDown(0)
				continue outer
			}
		}
	}
	*sr.events = events
	end := sr.commitFree
	if end < start {
		end = start
	}
	return end, nil
}

// heapNode is one ready-heap element: the ordering key plus the owning
// processor of the instance. Storing the processor index instead of the
// instance pointer keeps the node pointer-free — heap swaps skip the GC
// write barrier — and a live instance always occupies exactly one
// processor, so procInst resolves it in O(1).
type heapNode struct {
	clock int64
	age   int32
	proc  int32
}

// less orders the ready heap on (clock, age): the instance with the
// smallest clock runs next, ties to the oldest — exactly the pick order
// of the original linear scan.
func (a heapNode) less(b heapNode) bool {
	return a.clock < b.clock || (a.clock == b.clock && a.age < b.age)
}

func (sr *specRunner) heapMin() *instance {
	if len(sr.heap) == 0 {
		return nil
	}
	return sr.procInst[sr.heap[0].proc]
}

func (sr *specRunner) heapPush(in *instance) {
	sr.heapGen++
	i := len(sr.heap)
	sr.heap = append(sr.heap, heapNode{clock: in.clock, age: int32(in.age), proc: int32(in.proc)})
	sr.heapPos[in.proc] = int32(i)
	sr.heapUp(i)
}

func (sr *specRunner) heapRemove(in *instance) {
	sr.heapGen++
	i := int(sr.heapPos[in.proc])
	if i < 0 {
		return
	}
	last := len(sr.heap) - 1
	sr.heap[i] = sr.heap[last]
	sr.heapPos[sr.heap[i].proc] = int32(i)
	sr.heap = sr.heap[:last]
	sr.heapPos[in.proc] = -1
	if i < last {
		sr.heapFixAt(i)
	}
}

// heapFixAt re-reads heap[i]'s key from its instance and restores the
// heap property.
func (sr *specRunner) heapFixAt(i int) {
	sr.heapGen++
	sr.heap[i].clock = sr.procInst[sr.heap[i].proc].clock
	if !sr.heapDown(i) {
		sr.heapUp(i)
	}
}

func (sr *specRunner) heapUp(i int) {
	h := sr.heap
	pos := sr.heapPos
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		pos[h[i].proc] = int32(i)
		pos[h[parent].proc] = int32(parent)
		i = parent
	}
}

// heapDown sifts heap[i] down and reports whether it moved.
func (sr *specRunner) heapDown(i int) bool {
	h := sr.heap
	pos := sr.heapPos
	n := len(h)
	start := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least := l
		if r := l + 1; r < n && h[r].less(h[l]) {
			least = r
		}
		if !h[least].less(h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		pos[h[i].proc] = int32(i)
		pos[h[least].proc] = int32(least)
		i = least
	}
	return i > start
}

// segmentUsesPrivate reports whether a segment references any privatized
// variable (such segments pay the stack setup cost).
func (sr *specRunner) segmentUsesPrivate(seg *ir.Segment) bool {
	for _, ref := range sr.r.Refs {
		if ref.SegID == seg.ID && sr.lab.Info.Private(ref.Var) {
			return true
		}
	}
	return false
}

// nextIdentity determines the segment the next spawned instance should
// execute: the actual successor when the predecessor has completed, the
// statically predicted successor (first CFG edge / next loop iteration)
// otherwise. It returns exitNext when the region is known or predicted to
// end.
func (sr *specRunner) nextIdentity() int {
	age := sr.nextAge
	if sr.r.Kind == ir.LoopRegion {
		if age >= len(sr.iters) {
			return exitNext
		}
		if age > 0 {
			if decided, next := sr.prevOutcome(age - 1); decided && next == exitNext {
				return exitNext
			}
		}
		return sr.r.Segments[0].ID
	}
	if age == 0 {
		return sr.r.Segments[0].ID
	}
	if decided, next := sr.prevOutcome(age - 1); decided {
		return next
	}
	prev := sr.window[age-1-sr.baseAge]
	if len(prev.seg.Succs) == 0 {
		return exitNext
	}
	return prev.seg.Succs[0] // static prediction: first edge
}

// prevOutcome reports whether the instance of the given age has a decided
// successor (it completed or retired) and, if so, which. Ages older than
// the window belong to retired instances, whose successor is the recorded
// lastRetiredNext (retirement is in age order, so the age directly below
// the window is always the most recently retired).
func (sr *specRunner) prevOutcome(age int) (bool, int) {
	wi := age - sr.baseAge
	if wi < 0 {
		return true, sr.lastRetiredNext
	}
	prev := sr.window[wi]
	if prev.state == stDone {
		return true, prev.actualNext
	}
	return false, unknownNext
}

// spawnAll creates instances for free processors, oldest first.
func (sr *specRunner) spawnAll() {
	for !sr.stopSpawn {
		segID := sr.nextIdentity()
		if segID == exitNext {
			sr.stopSpawn = true
			return
		}
		proc := -1
		for p := range sr.procInst {
			if sr.procInst[p] != nil {
				continue
			}
			if proc == -1 || sr.procFree[p] < sr.procFree[proc] {
				proc = p
			}
		}
		if proc == -1 {
			return
		}
		age := sr.nextAge
		var idxVal int64
		if sr.r.Kind == ir.LoopRegion {
			idxVal = sr.iters[age]
		}
		inst := sr.newInstance(segID, age, idxVal, proc)
		inst.clock = sr.procFree[proc] + sr.cfg.DispatchCost
		if sr.segPrivate[segID] {
			inst.clock += sr.cfg.StackSetupCost
		}
		inst.spawnTime = inst.clock
		if sr.tl != nil {
			sr.tl.Add(obs.Event{Kind: obs.EvSpawn, Time: inst.clock,
				Proc: int32(proc), Age: int32(age), Seg: int32(segID), Ref: -1})
		}
		sr.window = append(sr.window, inst)
		sr.nextAge++
		sr.procInst[proc] = inst
		sr.heapPush(inst)
	}
}

// newInstance takes an instance off the free list (or allocates one) and
// initializes it for a fresh spawn, recycling its machine and buffer.
func (sr *specRunner) newInstance(segID, age int, idxVal int64, proc int) *instance {
	var inst *instance
	if n := len(sr.free); n > 0 {
		inst = sr.free[n-1]
		sr.free[n-1] = nil
		sr.free = sr.free[:n-1]
	} else {
		inst = &instance{}
	}
	inst.age = age
	inst.seg = sr.r.Seg(segID)
	inst.idxVal = idxVal
	inst.proc = proc
	inst.state = stRunning
	inst.doneTime = 0
	inst.exitReq = false
	inst.actualNext = unknownNext
	inst.hasPending = false
	inst.pendingEv = vm.Event{}
	inst.stallStart = 0
	inst.tally = refTally{}
	code := sr.codes[segID]
	if inst.m == nil {
		inst.m = vm.NewMachine(code, idxVal)
	} else {
		inst.m.Reinit(code, idxVal)
	}
	if inst.buf == nil {
		inst.buf = sr.newBuffer()
	} else {
		inst.buf.Reset()
	}
	return inst
}

// recycle puts a dead (retired or truncated) instance back on the free
// list. The caller must already have detached it from the window, the
// heap, and its processor.
func (sr *specRunner) recycle(inst *instance) {
	inst.hasPending = false
	inst.pendingEv = vm.Event{}
	sr.free = append(sr.free, inst)
}

// newBuffer builds one segment's speculative storage per the configured
// organization.
func (sr *specRunner) newBuffer() *specmem.Buffer {
	if sr.cfg.SpecSets > 1 {
		ways := sr.cfg.SpecCapacity / sr.cfg.SpecSets
		if ways < 1 {
			ways = 1
		}
		return specmem.NewSetAssocBuffer(sr.cfg.SpecSets, ways)
	}
	return specmem.NewBuffer(sr.cfg.SpecCapacity)
}

// advance processes one event of the instance.
func (sr *specRunner) advance(inst *instance) {
	before := inst.clock
	var ev vm.Event
	if inst.hasPending {
		ev = inst.pendingEv
		inst.hasPending = false
	} else {
		ops := inst.m.StepInto(&ev)
		inst.clock += int64(ops) * sr.opCost
		inst.tally.instrs += int64(ops)
	}
	if ev.Kind == vm.EvDone {
		// Busy-cycle accounting must happen before complete(): retirement
		// may recycle the instance struct for a new spawn.
		if inst.clock > before {
			sr.stats.BusyCycles += inst.clock - before
		}
		sr.complete(inst)
		return
	}
	if ev.Kind == vm.EvLoad {
		sr.doLoad(inst, &ev)
	} else {
		sr.doStore(inst, &ev)
	}
	if inst.clock > before {
		sr.stats.BusyCycles += inst.clock - before
	}
}

// addrOf resolves the element idx of a reference's variable (the event's
// Index) to a flat address, routing privatized variables to the
// processor's private stack frame.
func (sr *specRunner) addrOf(inst *instance, md *refMeta, idx int64) int64 {
	if md.private {
		return sr.sharedSize + int64(inst.proc)*sr.frameSize + md.base + idx
	}
	return md.base + idx
}

// isIdem reports whether the reference bypasses speculative storage.
func (sr *specRunner) isIdem(md *refMeta) bool {
	return md.bypass
}

func (sr *specRunner) tallyRef(inst *instance, md *refMeta) {
	inst.tally.total++
	if md.label == idem.Idempotent {
		inst.tally.idem++
	}
	if md.promoted {
		inst.tally.promo++
	}
	inst.tally.byCat[md.cat]++
}

func (sr *specRunner) trackOccupancy(inst *instance) {
	if n := inst.buf.Size(); n > sr.stats.PeakSpecOccupancy {
		sr.stats.PeakSpecOccupancy = n
	}
}

// doLoad resolves a read reference.
func (sr *specRunner) doLoad(inst *instance, ev *vm.Event) {
	md := &sr.refMeta[ev.Ref.ID]
	addr := sr.addrOf(inst, md, ev.Index)
	if sr.isIdem(md) {
		// Idempotent reads completely bypass the speculative storage and
		// reference the non-speculative storage directly (Definition 4).
		inst.m.ResumeLoad(sr.mem[addr])
		inst.clock += sr.hier.Access(inst.proc, addr)
		sr.tallyRef(inst, md)
		return
	}
	// Speculative read: own buffer, then youngest ancestor, then
	// non-speculative storage (HOSE Property 4).
	if e := inst.buf.Lookup(addr); e != nil && (e.Written || e.ReadFromBelow) {
		inst.m.ResumeLoad(e.Value)
		inst.clock += sr.specLat
		sr.tallyRef(inst, md)
		return
	}
	val := int64(0)
	srcAge := -1
	var lat int64
	found := false
	if !md.readOnly {
		// Ancestor search is pointless for read-only variables: nothing
		// in the region ever writes their address range.
		for wi := inst.age - 1 - sr.baseAge; wi >= 0; wi-- {
			anc := sr.window[wi]
			if e := anc.buf.Lookup(addr); e != nil && e.Written {
				val, srcAge, lat, found = e.Value, anc.age, sr.specLat, true
				break
			}
		}
	}
	if !found {
		val = sr.mem[addr]
		lat = sr.hier.Access(inst.proc, addr)
	}
	if !inst.buf.NoteRead(addr, val, srcAge) {
		sr.stats.Overflows++
		if inst.age != sr.baseAge {
			sr.stall(inst, ev)
			return
		}
		// The oldest segment is non-speculative: proceed untracked.
	}
	sr.trackOccupancy(inst)
	inst.m.ResumeLoad(val)
	inst.clock += lat
	sr.tallyRef(inst, md)
}

// doStore resolves a write reference.
func (sr *specRunner) doStore(inst *instance, ev *vm.Event) {
	md := &sr.refMeta[ev.Ref.ID]
	addr := sr.addrOf(inst, md, ev.Index)
	// Both speculative and idempotent writes first check for prematurely
	// executed speculative loads in younger segments (Definition 4 /
	// HOSE Property 5).
	sr.checkViolation(inst, addr, int32(ev.Ref.ID))
	if sr.isIdem(md) {
		// The value goes directly to non-speculative storage; nothing is
		// kept in speculative storage.
		sr.mem[addr] = ev.Value
		inst.clock += sr.hier.Access(inst.proc, addr)
		sr.tallyRef(inst, md)
		return
	}
	if !inst.buf.Write(addr, ev.Value) {
		sr.stats.Overflows++
		if inst.age != sr.baseAge {
			sr.stall(inst, ev)
			return
		}
		// Oldest: write through to non-speculative storage.
		sr.mem[addr] = ev.Value
		inst.clock += sr.hier.Access(inst.proc, addr)
	} else {
		inst.clock += sr.specLat
		sr.trackOccupancy(inst)
	}
	sr.tallyRef(inst, md)
}

// stall parks the instance until it becomes the oldest (speculative
// storage overflow: "execution halts until speculation is resolved").
func (sr *specRunner) stall(inst *instance, ev *vm.Event) {
	inst.pendingEv = *ev
	inst.hasPending = true
	inst.state = stStalled
	inst.stallStart = inst.clock
	if sr.tl != nil {
		sr.tl.Add(obs.Event{Kind: obs.EvStall, Time: inst.clock,
			Proc: int32(inst.proc), Age: int32(inst.age), Seg: int32(inst.seg.ID),
			Ref: -1, Aux: int64(inst.buf.Size()), Cause: obs.CauseOverflow})
	}
	sr.heapRemove(inst)
}

// checkViolation detects flow-dependence violations: a younger segment
// consumed this location from a source no younger than the writer. The
// speculation engine rolls back the violating segment and everything
// younger. refID is the writer's dense reference ID, carried into the
// squash timeline events so attribution can rank the refs whose writes
// trigger squash storms.
func (sr *specRunner) checkViolation(writer *instance, addr int64, refID int32) {
	for wi := writer.age + 1 - sr.baseAge; wi < len(sr.window); wi++ {
		v := sr.window[wi]
		if v.buf.PrematureRead(addr, writer.age) != nil {
			sr.stats.FlowViolations++
			sr.squashFrom(v.age, writer.clock, refID)
			return
		}
	}
}

// squashFrom rolls back instances age..youngest: buffers cleared, machines
// reset, restart after the rollback penalty (HOSE Property 2). refID is
// the violating writer's reference, attributed to every squash event.
func (sr *specRunner) squashFrom(age int, t int64, refID int32) {
	for wi := age - sr.baseAge; wi < len(sr.window); wi++ {
		inst := sr.window[wi]
		if inst.state == stStalled {
			sr.stats.OverflowStallCycles += t - inst.stallStart
		}
		if sr.tl != nil {
			sr.tl.Add(obs.Event{Kind: obs.EvSquash, Time: t,
				Dur:  sinceSpawn(t, inst.spawnTime),
				Proc: int32(inst.proc), Age: int32(inst.age), Seg: int32(inst.seg.ID),
				Ref: refID, Cause: obs.CauseFlowViolation})
		}
		wasRunning := inst.state == stRunning
		inst.m.Reset()
		inst.buf.Reset()
		inst.hasPending = false
		inst.exitReq = false
		inst.actualNext = unknownNext
		inst.state = stRunning
		inst.clock = t + sr.cfg.RollbackPenalty
		inst.spawnTime = inst.clock
		inst.doneTime = 0
		inst.tally = refTally{}
		sr.stats.SquashedSegments++
		if wasRunning {
			sr.heapFixAt(int(sr.heapPos[inst.proc]))
		} else {
			sr.heapPush(inst)
		}
	}
	// A squashed instance's completion outcome is void, including any
	// region-exit decision it contributed: if a misspeculated early exit
	// truncated the younger window and latched stopSpawn, the rolled-back
	// segment may well not exit on re-execution, and the dropped
	// iterations must be re-spawned (found by differential fuzzing: a
	// stale-read exit condition followed by this flow squash silently
	// lost the region tail). Clearing stopSpawn is always safe: spawnAll
	// re-derives it from surviving state, and decisions a squash cannot
	// touch — retired early exits, an exhausted iteration space — re-latch
	// immediately via nextIdentity.
	sr.stopSpawn = false
}

// complete handles segment completion: control-dependence verification
// against the speculatively spawned successor, then commit of the oldest
// chain.
func (sr *specRunner) complete(inst *instance) {
	sr.heapRemove(inst)
	inst.state = stDone
	inst.doneTime = inst.clock
	inst.exitReq = inst.m.ExitRequested
	inst.actualNext = sr.actualNext(inst)
	wi := inst.age - sr.baseAge
	if len(sr.window) > wi+1 {
		spawned := sr.window[wi+1]
		wrong := false
		if sr.r.Kind == ir.LoopRegion {
			wrong = inst.actualNext == exitNext
		} else {
			wrong = inst.actualNext != spawned.seg.ID
		}
		if wrong {
			// Control dependence violation: the successor segment is
			// different from the speculatively chosen one (HOSE
			// Property 5); roll back all younger segments.
			sr.stats.ControlViolations++
			sr.truncateAfter(inst)
		}
	}
	sr.retireChain()
	sr.spawnAll()
}

// actualNext computes the true successor of a completed instance.
func (sr *specRunner) actualNext(inst *instance) int {
	if inst.exitReq {
		return exitNext
	}
	if sr.r.Kind == ir.LoopRegion {
		if inst.age+1 >= len(sr.iters) {
			return exitNext
		}
		return sr.r.Segments[0].ID
	}
	return nextSegment(inst.seg, inst.m)
}

// truncateAfter discards the (wrongly speculated) instances younger than
// inst, freeing their processors.
func (sr *specRunner) truncateAfter(inst *instance) {
	t := inst.doneTime
	wi := inst.age - sr.baseAge
	for _, v := range sr.window[wi+1:] {
		if v.state == stStalled {
			sr.stats.OverflowStallCycles += t - v.stallStart
		}
		if v.state == stRunning {
			sr.heapRemove(v)
		}
		if sr.tl != nil {
			sr.tl.Add(obs.Event{Kind: obs.EvSquash, Time: t,
				Dur:  sinceSpawn(t, v.spawnTime),
				Proc: int32(v.proc), Age: int32(v.age), Seg: int32(v.seg.ID),
				Ref: -1, Cause: obs.CauseControlViolation})
		}
		sr.procFree[v.proc] = t + sr.cfg.RollbackPenalty
		sr.procInst[v.proc] = nil
		sr.stats.SquashedSegments++
		sr.recycle(v)
	}
	for i := wi + 1; i < len(sr.window); i++ {
		sr.window[i] = nil
	}
	sr.window = sr.window[:wi+1]
	sr.nextAge = inst.age + 1
	sr.stopSpawn = inst.actualNext == exitNext
}

// popOldest removes window[0] (which must be retired) while keeping the
// backing array in place, so the window never reallocates.
func (sr *specRunner) popOldest() {
	n := len(sr.window)
	copy(sr.window, sr.window[1:])
	sr.window[n-1] = nil
	sr.window = sr.window[:n-1]
	sr.baseAge++
}

// retireChain commits completed segments in age order (HOSE Property 6):
// only the oldest segment may commit, and commits are serialized.
func (sr *specRunner) retireChain() {
	for len(sr.window) > 0 && sr.window[0].state == stDone {
		inst := sr.window[0]
		entries := inst.buf.AppendWritten(sr.commit[:0])
		start := inst.doneTime
		if sr.commitFree > start {
			start = sr.commitFree
		}
		// Committed values drain through the memory hierarchy: each entry
		// pays the commit overhead plus the (possibly missing) cache
		// access, serialized on the commit chain. This is what makes
		// speculative-storage pressure expensive and what idempotent
		// references avoid by writing through during execution.
		t := start
		for _, e := range entries {
			t += sr.cfg.CommitPerEntry + sr.hier.Access(inst.proc, e.Addr)
			sr.mem[e.Addr] = e.Value
		}
		sr.stats.CommittedEntries += int64(len(entries))
		sr.commit = entries[:0]
		if sr.tl != nil {
			sr.tl.Add(obs.Event{Kind: obs.EvCommit, Time: t,
				Dur:  sinceSpawn(t, inst.spawnTime),
				Proc: int32(inst.proc), Age: int32(inst.age), Seg: int32(inst.seg.ID),
				Ref: -1, Aux: int64(len(entries))})
		}
		sr.commitFree = t
		inst.state = stRetired
		inst.buf.Reset()

		sr.stats.DynRefs += inst.tally.total
		sr.stats.IdemRefs += inst.tally.idem
		sr.stats.SpecPromotedRefs += inst.tally.promo
		for c := range inst.tally.byCat {
			sr.stats.RefsByCategory[c] += inst.tally.byCat[c]
		}
		sr.stats.Instructions += inst.tally.instrs
		sr.stats.SegmentsRetired++

		sr.procFree[inst.proc] = t
		sr.procInst[inst.proc] = nil
		sr.lastRetiredNext = inst.actualNext
		earlyExit := inst.actualNext == exitNext
		sr.popOldest()
		sr.recycle(inst)

		// If the new oldest was stalled on overflow, it is now
		// non-speculative and may proceed.
		if len(sr.window) > 0 {
			n := sr.window[0]
			if n.state == stStalled {
				sr.stats.OverflowStallCycles += t - n.stallStart
				n.state = stRunning
				if n.clock < t {
					n.clock = t
				}
				sr.heapPush(n)
			}
		}
		// An early-exiting oldest segment ends the region: discard any
		// younger speculation that survived (it was squashed at
		// completion time already unless it completed later).
		if earlyExit && len(sr.window) > 0 {
			sr.truncateAfterRetired(t)
		}
	}
}

// truncateAfterRetired drops younger instances after a retired early-exit
// segment.
func (sr *specRunner) truncateAfterRetired(t int64) {
	for i, v := range sr.window {
		if v.state == stStalled {
			sr.stats.OverflowStallCycles += t - v.stallStart
		}
		if v.state == stRunning {
			sr.heapRemove(v)
		}
		if sr.tl != nil {
			sr.tl.Add(obs.Event{Kind: obs.EvSquash, Time: t,
				Dur:  sinceSpawn(t, v.spawnTime),
				Proc: int32(v.proc), Age: int32(v.age), Seg: int32(v.seg.ID),
				Ref: -1, Cause: obs.CauseEarlyExitRevoke})
		}
		sr.procFree[v.proc] = t
		sr.procInst[v.proc] = nil
		sr.stats.SquashedSegments++
		sr.recycle(v)
		sr.window[i] = nil
	}
	sr.window = sr.window[:0]
	sr.nextAge = sr.baseAge
	sr.stopSpawn = true
}
