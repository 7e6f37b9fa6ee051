package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"refidem/internal/api"
	"refidem/internal/gen"
	"refidem/internal/ir"
	"refidem/internal/lang"
	"refidem/internal/workloads"
)

// Request kinds of the workloads' logical requests.
const (
	kindLabel    = "label"    // full-program POST /v1/label
	kindSimulate = "simulate" // POST /v1/simulate
	kindDelta    = "delta"    // POST /v1/label with a base fingerprint and a patch
)

// input is one logical request plus what its response must contain.
type input struct {
	kind string
	req  api.Request
	// want is the program the response must describe: its name,
	// fingerprint and per-region reference counts.
	want *shape
	// procs and capacity are the machine a simulate response must report.
	procs, capacity int
	// golden and capPoint are the paper's reference numbers for this
	// machine, when the request is one of the checked figure points.
	golden   *figureRow
	capPoint *capacityRow
	// pool is the mixed-zipf pool index of the program (-1 elsewhere).
	pool int
}

// shape is the part of a label response the benchmark derives on its own.
type shape struct {
	name        string
	fingerprint string
	regions     []regionShape
}

type regionShape struct {
	name string
	refs int
}

// shapeOf describes a program whose canonical source is src (its Format
// output, which is also what the server's fingerprint hashes).
func shapeOf(p *ir.Program, src string) *shape {
	fp := sha256.Sum256([]byte(src))
	s := &shape{name: p.Name, fingerprint: hex.EncodeToString(fp[:])}
	for _, r := range p.Regions {
		s.regions = append(s.regions, regionShape{name: r.Name, refs: len(r.Refs)})
	}
	return s
}

// genWorkers is how many goroutines generate programs: one per client,
// the same CPU share the run itself uses.
const genWorkers = 2

// maxRefs bounds a generated program's references (after call inlining).
// This is a deliberate traffic-shaping choice. Serving cost grows faster
// than linearly in references (dependences grow with their square and
// every label response renders its region's dependence list), and the
// call and multi-region profiles occasionally inline into hundreds, one of
// which costs as much as a hundred ordinary requests. Redrawing those
// keeps a handful of programs from deciding a run. It excludes about 2.8%
// of draws: 17% of the multiregion profile's, 6-8% of calls, calls-nested
// and deep, 3% of calls-mixed, and almost none of the other ten profiles.
const maxRefs = 128

// genPrograms generates programs from..from+n-1 of a stream: program i
// from profile i mod 15 with a generator seed drawn from (seed, domain, i,
// attempt). Attempts that exceed maxRefs are redrawn. Generation runs on
// genWorkers goroutines; then, in index order, a program whose source
// repeats one generated before it in the stream (recorded in seen) is
// redrawn. The stream therefore depends on the seed alone, however it is
// cut into calls.
func genPrograms(seed int64, domain uint64, from, n int, seen map[uint64]bool) ([]*gen.Scenario, []string) {
	profiles := gen.Profiles()
	scs := make([]*gen.Scenario, n)
	srcs := make([]string, n)
	attempts := make([]int, n)
	draw := func(j, attempt int) int {
		i := from + j
		for ; ; attempt++ {
			sc := gen.FromProfile(profiles[i%len(profiles)], int64(mix(seed, domain, uint64(i), uint64(attempt))>>1))
			refs := 0
			for _, r := range sc.Program.Regions {
				refs += len(r.Refs)
			}
			if refs <= maxRefs {
				scs[j], srcs[j] = sc, sc.Program.Format()
				return attempt
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < genWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < n; j += genWorkers {
				attempts[j] = draw(j, 0)
			}
		}(w)
	}
	wg.Wait()
	for j := range srcs {
		for seen[srcKey(srcs[j])] {
			attempts[j] = draw(j, attempts[j]+1)
		}
		seen[srcKey(srcs[j])] = true
	}
	return scs, srcs
}

// srcKey is a 64-bit hash of a program source, for telling sources apart.
func srcKey(src string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(src))
	return h.Sum64()
}

// coldStream is the label-cold stream: distinct generated programs,
// round-robin over every gen profile. It is produced a chunk at a time,
// between the slices of a measured window, so only the requests about to
// be sent sit in the measured heap.
type coldStream struct {
	seed   int64
	domain uint64
	base   int     // stream index of buf[0]
	buf    []input // inputs base..base+len(buf)-1
	seen   map[uint64]bool
}

func newColdStream(seed int64, domain uint64) *coldStream {
	return &coldStream{seed: seed, domain: domain, seen: map[uint64]bool{}}
}

// fill drops the inputs before index from and generates until at least n
// inputs from index from on are ready.
func (s *coldStream) fill(from, n int) {
	end := s.base + len(s.buf)
	need := max(0, from+n-end)
	scs, srcs := genPrograms(s.seed, s.domain, end, need, s.seen)
	keep := s.buf[min(from-s.base, len(s.buf)):]
	buf := make([]input, 0, len(keep)+need)
	buf = append(buf, keep...)
	for j := range srcs {
		buf = append(buf, input{
			kind: kindLabel,
			req:  api.Request{Op: api.OpLabel, Program: srcs[j]},
			want: shapeOf(scs[j].Program, srcs[j]),
			pool: -1,
		})
	}
	s.buf, s.base = buf, end+need-len(buf)
}

// input is request i, if it is ready.
func (s *coldStream) input(i int) (*input, bool) {
	if i < s.base || i >= s.base+len(s.buf) {
		return nil, false
	}
	return &s.buf[i-s.base], true
}

// labelColdInputs is the first n inputs of a label-cold stream.
func labelColdInputs(seed int64, domain uint64, n int) []input {
	s := newColdStream(seed, domain)
	s.fill(0, n)
	return s.buf
}

// Simulate-paper machine grid. Capacities are drawn per cell from three
// strata: overflow-heavy (below the paper's 128 entries), the transition,
// and overflow-free.
var (
	simProcs  = []int{2, 4, 8}
	simStrata = [][2]int{{8, 128}, {128, 1024}, {1024, 8192}}
	// paperProcs and paperCapacity are the paper's default machine
	// (engine.DefaultConfig), at which figures6to9 was measured.
	paperProcs    = 4
	paperCapacity = 128
)

// paperLoops is the simulate-paper program set: the Figure 6-9 loops.
type paperLoop struct {
	spec  workloads.LoopSpec
	shape *shape
}

func loadPaperLoops() ([]paperLoop, error) {
	var out []paperLoop
	for _, spec := range workloads.NamedLoops() {
		p, err := lang.Parse(spec.Src)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", spec, err)
		}
		out = append(out, paperLoop{spec: spec, shape: shapeOf(p, p.Format())})
	}
	return out, nil
}

// simStream is the simulate-paper stream: n requests, every one a
// distinct (loop, procs, capacity) triple, kept as compact points and
// turned into requests as they are sent. It opens with each loop at the
// paper's default machine and the TOMCATV capacity sweep, which are
// checked against the golden figures; then it cycles round-robin over
// loop × procs × capacity stratum, drawing the capacity in a stratum from
// the seed.
type simStream struct {
	loops  []paperLoop
	gold   *goldenFigures
	points []simPoint
}

type simPoint struct{ loop, procs, capacity int32 }

func newSimStream(seed int64, n int, loops []paperLoop, gold *goldenFigures) (*simStream, error) {
	s := &simStream{loops: loops, gold: gold}
	used := map[simPoint]bool{}
	add := func(li, procs, capacity int) {
		pt := simPoint{int32(li), int32(procs), int32(capacity)}
		used[pt] = true
		s.points = append(s.points, pt)
	}
	for li, l := range loops {
		if gold.figure(l.spec.Bench, l.spec.Name) == nil {
			return nil, fmt.Errorf("golden figures have no row for %s", l.spec)
		}
		add(li, paperProcs, paperCapacity)
	}
	for li, l := range loops {
		if l.spec.Bench != sweepBench || l.spec.Name != sweepLoop {
			continue
		}
		for _, pt := range gold.Capacity {
			if pt.Capacity != paperCapacity {
				add(li, paperProcs, pt.Capacity)
			}
		}
	}
	cells := len(loops) * len(simProcs) * len(simStrata)
	for j := 0; len(s.points) < n; j++ {
		cell := j % cells
		li := cell % len(loops)
		procs := simProcs[(cell/len(loops))%len(simProcs)]
		st := simStrata[cell/(len(loops)*len(simProcs))]
		size := st[1] - st[0]
		c := st[0] + int(mix(seed, domSimCap, uint64(j))%uint64(size))
		// Probe upward (wrapping inside the stratum) for an unused triple;
		// a stratum used up spills past its top, still distinct.
		for k := 0; used[simPoint{int32(li), int32(procs), int32(c)}]; k++ {
			c = st[0] + (c-st[0]+1)%size
			if k >= size {
				c = st[1] + k
			}
		}
		add(li, procs, c)
	}
	s.points = s.points[:n]
	return s, nil
}

// input is request i of the stream.
func (s *simStream) input(i int) input {
	pt := s.points[i]
	l := s.loops[pt.loop]
	procs, capacity := int(pt.procs), int(pt.capacity)
	in := input{
		kind:     kindSimulate,
		req:      api.Request{Op: api.OpSimulate, Program: l.spec.Src, Procs: procs, Capacity: capacity},
		want:     l.shape,
		procs:    procs,
		capacity: capacity,
		pool:     -1,
	}
	if procs == paperProcs && capacity == paperCapacity {
		in.golden = s.gold.figure(l.spec.Bench, l.spec.Name)
	}
	if procs == paperProcs && l.spec.Bench == sweepBench && l.spec.Name == sweepLoop {
		in.capPoint = s.gold.capacity(capacity)
	}
	return in
}

// Mixed-zipf parameters. The pool is larger than a replica's program
// cache (8 shards × 64) and its delta base registry (256), so the Zipf
// tail misses while the head hits; its size is an assumption, since the
// repository records no measured traffic. The exponent is the one
// docs/CLUSTER.md measures the cluster at, and the operation mix is that
// of scripts/bench.sh's cluster row (loadbench -n 1000 -n-delta 500 and
// its default n/4 simulates): 4 labels, 1 simulate and 2 deltas in 7.
const (
	poolSize = 3072
	zipfS    = 1.3
	// Operation mix: labels below fracLabel, simulates below fracSimulate,
	// deltas above.
	fracLabel    = 4.0 / 7
	fracSimulate = 5.0 / 7
)

// poolProgram is one program of the mixed-zipf pool with its delta.
type poolProgram struct {
	src   string
	shape *shape
	// delta is loadbench's loop-shrink edit: the first loop region whose
	// trip count can shrink loses its last trip (or, without such a loop,
	// the first region is replayed unchanged).
	delta       api.Request
	composed    *shape
	composedSrc string
}

// mixedPool is the mixed-zipf program pool and its popularity table.
type mixedPool struct {
	progs []poolProgram
	cdf   []float64 // cumulative Zipf weights by rank (= pool index)
}

// poolSeed generates the mixed-zipf pool. The pool is the same corpus in
// every run and --seed draws the request sequence from it. This is
// deliberate: at s = 1.3 the ten most popular programs take about 63% of
// the requests, so a pool drawn per seed made a run's cost depend on
// which ten programs came up.
const poolSeed = 1

// newMixedPool generates the pool. A program's Zipf rank is its pool
// index, so the popular head cycles through the gen profiles like the
// rest of the pool.
func newMixedPool() (*mixedPool, error) {
	_, srcs := genPrograms(poolSeed, domPool, 0, poolSize, map[uint64]bool{})
	mp := &mixedPool{progs: make([]poolProgram, poolSize), cdf: make([]float64, poolSize)}
	errs := make([]error, poolSize)
	var wg sync.WaitGroup
	for w := 0; w < genWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < poolSize; i += genWorkers {
				mp.progs[i], errs[i] = newPoolProgram(srcs[i])
			}
		}(w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pool program %d: %w", i, err)
		}
	}
	total := 0.0
	for k := range mp.cdf {
		total += math.Pow(float64(k+1), -zipfS)
		mp.cdf[k] = total
	}
	for k := range mp.cdf {
		mp.cdf[k] /= total
	}
	return mp, nil
}

func newPoolProgram(src string) (poolProgram, error) {
	p, err := lang.Parse(src)
	if err != nil {
		return poolProgram{}, err
	}
	if len(p.Regions) == 0 {
		return poolProgram{}, fmt.Errorf("program has no regions")
	}
	pp := poolProgram{src: src, shape: shapeOf(p, src)}
	target := p.Regions[0]
	for _, r := range p.Regions {
		if r.Kind != ir.LoopRegion {
			continue
		}
		if (r.Step > 0 && r.To-r.Step >= r.From) || (r.Step < 0 && r.To-r.Step <= r.From) {
			target = r
			r.To -= r.Step
			break
		}
	}
	pp.delta = api.Request{
		Op:      api.OpLabel,
		Base:    pp.shape.fingerprint,
		Patches: []api.RegionPatch{{Region: target.Name, Source: target.Format()}},
	}
	pp.composedSrc = p.Format()
	pp.composed = shapeOf(p, pp.composedSrc)
	return pp, nil
}

// input is mixed-zipf request i: a Zipf-popular program of the pool and
// an operation, both pure functions of (seed, i).
func (mp *mixedPool) input(seed int64, i int) input {
	k := sort.SearchFloat64s(mp.cdf, unit(mix(seed, domZipf, uint64(i))))
	if k >= len(mp.progs) {
		k = len(mp.progs) - 1
	}
	switch u := unit(mix(seed, domOp, uint64(i))); {
	case u < fracLabel:
		return mp.request(k, kindLabel)
	case u < fracSimulate:
		return mp.request(k, kindSimulate)
	default:
		return mp.request(k, kindDelta)
	}
}

// request is the kind of request for pool program k.
func (mp *mixedPool) request(k int, kind string) input {
	pp := &mp.progs[k]
	switch kind {
	case kindLabel:
		return input{kind: kindLabel, req: api.Request{Op: api.OpLabel, Program: pp.src}, want: pp.shape, pool: k}
	case kindSimulate:
		return input{kind: kindSimulate, req: api.Request{Op: api.OpSimulate, Program: pp.src}, want: pp.shape,
			procs: paperProcs, capacity: paperCapacity, pool: k}
	default:
		return input{kind: kindDelta, req: pp.delta, want: pp.composed, pool: k}
	}
}
