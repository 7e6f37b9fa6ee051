// Package gen is the seeded, grammar-driven program generator behind the
// property tests and the differential fuzzer. It grew out of the private
// generator in internal/testutil: generation is now a first-class
// subsystem with tunable scenario profiles (subscript classes, nesting
// depth, conditionals, multi-region programs, privatization/read-only/
// live-out mixes, buffer-pressure regimes) and every generated program
// comes wrapped in a self-describing Scenario record, so a failing fuzz
// case can be replayed byte-exactly from its seed and profile name alone.
//
// Generated affine subscripts are always within array bounds: the
// analysis contract (as for any Fortran-style compiler, and as in the
// paper) is that analyzable subscripts do not overflow their declared
// dimensions. Indirect (subscripted-subscript) accesses may take any
// value — the engine wraps them into bounds, and the dependence analysis
// treats them conservatively, exactly like the paper's K(E) references.
package gen

import (
	"fmt"
	"math/rand"

	"refidem/internal/ir"
)

// SubscriptMix weights the three subscript classes the generator emits
// for array accesses. A class with weight 0 never appears; weights are
// relative, not percentages.
type SubscriptMix struct {
	// Affine subscripts are scale*idx + c, in bounds by construction.
	Affine int
	// Indirect subscripts are loads of another array (uncertain address,
	// the paper's K(E) class).
	Indirect int
	// Coupled subscripts combine two in-scope loop indices,
	// s1*i1 + s2*i2 + c, creating cross-iteration dependence patterns a
	// single-index subscript cannot express.
	Coupled int
}

// Config bounds the shape of generated programs. The zero value is not
// usable; start from Default() or a named profile and adjust.
type Config struct {
	MaxScalars  int
	MaxArrays   int
	MaxArrayDim int
	MaxStmts    int
	MaxIters    int
	// MaxInnerTrip bounds inner-loop trip counts.
	MaxInnerTrip int
	// MaxDepth bounds statement nesting (if/for) inside a segment body.
	MaxDepth int
	// Regions sets how many regions the program contains (min 1).
	Regions int

	// CFGPct is the percentage of regions generated as explicit CFG DAGs
	// rather than counted loops.
	CFGPct int
	// DowntoPct is the percentage of loop regions that iterate downward.
	DowntoPct int
	// CondPct is the percentage chance a statement slot becomes an
	// if/else (subject to MaxDepth).
	CondPct int
	// LoopPct is the percentage chance a statement slot becomes an inner
	// loop (subject to MaxDepth).
	LoopPct int
	// ExitPct is the percentage chance a top-level loop-region statement
	// slot becomes an early exit (exit if ...).
	ExitPct int
	// BurstPct is the percentage chance a statement slot becomes a dense
	// write burst — an inner loop storing to a fresh array cell every
	// iteration. Bursts inflate per-segment speculative footprints and
	// are the lever of the buffer-pressure profiles.
	BurstPct int

	// Subs weights the subscript classes.
	Subs SubscriptMix

	// Procs declares that many procedures before the regions; their
	// bodies are generated with the same statement grammar (parameters in
	// scope as bounded index names). 0 disables procedures.
	Procs int
	// MaxParams bounds the per-procedure parameter count (each procedure
	// rolls 0..MaxParams parameters).
	MaxParams int
	// CallPct is the percentage chance a statement slot becomes a
	// procedure call (region bodies and procedure bodies alike; a
	// procedure can only call procedures generated before it, so the
	// call graph is acyclic by construction).
	CallPct int

	// PrivateScalars adds that many scalars which are written (defined)
	// at the top of every segment body and declared private, exercising
	// the privatization category soundly: every use is preceded by the
	// unconditional segment-local definition.
	PrivateScalars int
	// ReadOnlyArrays reserves that many arrays as read-only: the
	// generator never writes them, exercising the read-only category.
	ReadOnlyArrays int
	// LiveOutEvery marks every k-th non-private variable live out of the
	// program (0 disables the mix; at least one variable is always kept
	// live so differential comparison has something to compare).
	LiveOutEvery int
}

// Default is a balanced configuration exercising every feature a little.
func Default() Config {
	return Config{
		MaxScalars: 4, MaxArrays: 3, MaxArrayDim: 24,
		MaxStmts: 6, MaxIters: 10, MaxInnerTrip: 4, MaxDepth: 2,
		Regions: 1,
		CFGPct:  33, DowntoPct: 15, CondPct: 20, LoopPct: 10,
		ExitPct: 2, BurstPct: 5,
		Subs:           SubscriptMix{Affine: 7, Indirect: 1, Coupled: 2},
		PrivateScalars: 1, ReadOnlyArrays: 1, LiveOutEvery: 2,
	}
}

// Scenario is the self-describing record wrapping one generated program:
// everything needed to regenerate it byte-exactly (seed + profile/config)
// plus a summary of the features it actually contains.
type Scenario struct {
	Seed    int64
	Profile string // profile name, or "custom" for ad-hoc configs
	Config  Config
	Program *ir.Program

	// Fingerprint is the content fingerprint of the generated program;
	// two runs with the same seed and config must produce equal values.
	Fingerprint ir.Fingerprint

	// Shape counters.
	Regions    int
	CFGRegions int
	Stmts      int
	Refs       int

	// Feature flags: what the program actually exercises.
	Indirect   bool
	Coupled    bool
	EarlyExit  bool
	WriteBurst bool
	Downto     bool
	Calls      bool

	PrivateScalars int
	ReadOnlyArrays int
	// Procs counts the declared procedures.
	Procs   int
	LiveOut int
}

// String renders a one-line self-description.
func (s *Scenario) String() string {
	feats := ""
	mark := func(on bool, tag string) {
		if on {
			feats += " " + tag
		}
	}
	mark(s.CFGRegions > 0, "cfg")
	mark(s.Indirect, "indirect")
	mark(s.Coupled, "coupled")
	mark(s.EarlyExit, "exit")
	mark(s.WriteBurst, "burst")
	mark(s.Downto, "downto")
	mark(s.Calls, "calls")
	mark(s.PrivateScalars > 0, "private")
	mark(s.ReadOnlyArrays > 0, "readonly")
	return fmt.Sprintf("seed=%d profile=%s regions=%d stmts=%d refs=%d liveout=%d%s",
		s.Seed, s.Profile, s.Regions, s.Stmts, s.Refs, s.LiveOut, feats)
}

// idxInfo describes an in-scope loop index and its maximum value.
type idxInfo struct {
	name string
	max  int
}

// gen carries generation state.
type gen struct {
	rng      *rand.Rand
	cfg      Config
	p        *ir.Program
	scalars  []*ir.Var // shared scalars (write + read)
	privates []*ir.Var // declared-private scalars (def-before-use)
	arrays   []*ir.Var // writable arrays
	roArrays []*ir.Var // read-only arrays
	procs    []*ir.Proc
	paramMax int // inclusive value bound callers guarantee per argument
	depth    int
	loops    int // enclosing inner loops, the nest Validate caps
	sc       *Scenario
}

// Generate builds one program under the given configuration and returns
// its scenario record. Identical (seed, cfg) pairs always produce
// identical programs.
func Generate(seed int64, cfg Config) *Scenario {
	return generate(seed, cfg, "custom")
}

func generate(seed int64, cfg Config, profile string) *Scenario {
	// Clamp every sizing knob a partially-filled Config may leave zero;
	// the generator must never panic on a custom configuration.
	if cfg.Regions < 1 {
		cfg.Regions = 1
	}
	if cfg.MaxScalars < 1 {
		cfg.MaxScalars = 1
	}
	if cfg.MaxArrays < 1 {
		cfg.MaxArrays = 1
	}
	if cfg.MaxArrayDim < 1 {
		cfg.MaxArrayDim = 1
	}
	if cfg.MaxIters < 2 {
		cfg.MaxIters = 2
	}
	if cfg.MaxStmts < 1 {
		cfg.MaxStmts = 1
	}
	if cfg.MaxInnerTrip < 1 {
		cfg.MaxInnerTrip = 1
	}
	sc := &Scenario{Seed: seed, Profile: profile, Config: cfg}
	g := &gen{
		rng: rand.New(rand.NewSource(seed)),
		cfg: cfg,
		p:   ir.NewProgram("rand"),
		sc:  sc,
	}
	ns := 1 + g.rng.Intn(cfg.MaxScalars)
	for i := 0; i < ns; i++ {
		g.scalars = append(g.scalars, g.p.AddVar(fmt.Sprintf("s%d", i)))
	}
	for i := 0; i < cfg.PrivateScalars; i++ {
		g.privates = append(g.privates, g.p.AddVar(fmt.Sprintf("p%d", i)))
	}
	na := 1 + g.rng.Intn(cfg.MaxArrays)
	for i := 0; i < na; i++ {
		// Dimensions comfortably larger than the iteration counts so
		// in-bounds affine subscripts exist for any scale <= 2.
		dim := cfg.MaxIters*2 + g.rng.Intn(cfg.MaxArrayDim)
		g.arrays = append(g.arrays, g.p.AddVar(fmt.Sprintf("a%d", i), dim))
	}
	for i := 0; i < cfg.ReadOnlyArrays; i++ {
		dim := cfg.MaxIters*2 + g.rng.Intn(cfg.MaxArrayDim)
		g.roArrays = append(g.roArrays, g.p.AddVar(fmt.Sprintf("r%d", i), dim))
	}
	if cfg.Procs > 0 {
		// Parameters behave like an extra loop index bounded by the same
		// iteration range, so the existing in-bounds subscript machinery
		// covers them; callers must pass arguments within [0, paramMax].
		g.paramMax = cfg.MaxIters - 1
		for i := 0; i < cfg.Procs; i++ {
			g.genProc(i)
		}
	}
	for ri := 0; ri < cfg.Regions; ri++ {
		var r *ir.Region
		if g.pct(cfg.CFGPct) {
			r = g.cfgRegion()
			sc.CFGRegions++
		} else {
			r = g.loopRegion()
		}
		r.Name = fmt.Sprintf("r%d", ri)
		if len(g.privates) > 0 {
			r.Ann.Private = map[string]bool{}
			for _, v := range g.privates {
				r.Ann.Private[v.Name] = true
			}
		}
		if ri == cfg.Regions-1 {
			// The final region declares the program's live-out set;
			// earlier regions get theirs from the inter-region liveness
			// pass. Private scalars are never live-out (their value after
			// the region is per-segment and undefined).
			r.Ann.LiveOut = g.liveOutSet()
			sc.LiveOut = len(r.Ann.LiveOut)
		}
		r.Finalize()
		g.p.AddRegion(r)
	}
	sc.Program = g.p
	sc.Fingerprint = ir.FingerprintOf(g.p)
	sc.Regions = len(g.p.Regions)
	for _, r := range g.p.Regions {
		sc.Refs += len(r.Refs)
		for _, seg := range r.Segments {
			ir.WalkStmts(seg.Body, func(ir.Stmt) { sc.Stmts++ })
		}
	}
	sc.PrivateScalars = len(g.privates)
	sc.ReadOnlyArrays = len(g.roArrays)
	sc.Procs = len(g.p.Procs)
	return sc
}

// genProc generates one procedure. Bodies use the shared statement
// grammar with the parameters in scope as bounded indices; a procedure
// may call any procedure generated before it (the call graph is acyclic
// by construction). Early exits inside procedures are only generated
// when every region is a loop region (CFGPct == 0), matching where the
// top-level grammar emits them.
func (g *gen) genProc(i int) {
	nparams := 0
	if g.cfg.MaxParams > 0 {
		nparams = g.rng.Intn(g.cfg.MaxParams + 1)
	}
	params := make([]string, nparams)
	indices := make([]idxInfo, nparams)
	for j := range params {
		params[j] = fmt.Sprintf("q%d", j)
		indices[j] = idxInfo{name: params[j], max: g.paramMax}
	}
	allowExit := g.cfg.ExitPct > 0 && g.cfg.CFGPct == 0
	n := 1 + g.rng.Intn(maxOf(1, g.cfg.MaxStmts/2))
	body := g.stmts(n, indices, allowExit)
	pr := g.p.AddProc(fmt.Sprintf("f%d", i), params, body)
	g.procs = append(g.procs, pr)
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// call emits a call to a random generated procedure with arguments that
// stay within [0, paramMax] for every in-scope index value, so callee
// subscripts built from parameters remain in bounds. A callee whose loops
// would nest the expansion past ir.MaxAffDepth yields an assignment.
func (g *gen) call(indices []idxInfo) ir.Stmt {
	pr := g.procs[g.rng.Intn(len(g.procs))]
	if g.loops+loopDepth(pr.Body) > ir.MaxAffDepth {
		return g.assign(indices)
	}
	args := make([]ir.Expr, len(pr.Params))
	for i := range args {
		args[i] = g.boundedArg(indices)
	}
	g.sc.Calls = true
	return &ir.Call{Callee: pr.Name, Args: args, Proc: pr}
}

// loopDepth returns the deepest loop nest of stmts with every call
// expanded.
func loopDepth(stmts []ir.Stmt) int {
	d := 0
	for _, st := range stmts {
		switch s := st.(type) {
		case *ir.For:
			d = max(d, 1+loopDepth(s.Body))
		case *ir.If:
			d = max(d, loopDepth(s.Then), loopDepth(s.Else))
		case *ir.Call:
			d = max(d, loopDepth(s.Proc.Body))
		}
	}
	return d
}

// boundedArg builds an affine argument expression with value range
// within [0, paramMax]: a constant, an in-scope index that fits, or
// index + offset with the offset capped by the remaining headroom.
func (g *gen) boundedArg(indices []idxInfo) ir.Expr {
	var fits []idxInfo
	for _, ix := range indices {
		if ix.max <= g.paramMax {
			fits = append(fits, ix)
		}
	}
	if len(fits) == 0 || g.rng.Intn(4) == 0 {
		return ir.C(int64(g.rng.Intn(g.paramMax + 1)))
	}
	ix := fits[g.rng.Intn(len(fits))]
	if room := g.paramMax - ix.max; room > 0 && g.rng.Intn(2) == 0 {
		return ir.AddE(ir.Idx(ix.name), ir.C(int64(g.rng.Intn(room+1))))
	}
	return ir.Idx(ix.name)
}

// pct rolls a percentage chance.
func (g *gen) pct(p int) bool {
	if p <= 0 {
		return false
	}
	if p >= 100 {
		return true
	}
	return g.rng.Intn(100) < p
}

// liveOutSet marks every LiveOutEvery-th non-private variable live,
// always keeping at least one so differential comparison is meaningful.
func (g *gen) liveOutSet() map[string]bool {
	live := map[string]bool{}
	k := g.cfg.LiveOutEvery
	pool := append(append([]*ir.Var{}, g.scalars...), g.arrays...)
	pool = append(pool, g.roArrays...)
	if k > 0 {
		for i, v := range pool {
			if i%k == 0 {
				live[v.Name] = true
			}
		}
	}
	if len(live) == 0 && len(pool) > 0 {
		live[pool[0].Name] = true
	}
	return live
}

// privateDefs emits the unconditional segment-top definitions of the
// declared-private scalars: each is assigned before any possible use, so
// the declared privatization is sound by construction.
func (g *gen) privateDefs() []ir.Stmt {
	var out []ir.Stmt
	for _, v := range g.privates {
		out = append(out, &ir.Assign{LHS: ir.Wr(v), RHS: g.sharedExpr(nil, 1)})
	}
	return out
}

func (g *gen) loopRegion() *ir.Region {
	iters := 2 + g.rng.Intn(g.cfg.MaxIters-1)
	from, to, step := 0, iters-1, 1
	if g.pct(g.cfg.DowntoPct) {
		from, to, step = iters-1, 0, -1
		g.sc.Downto = true
	}
	body := append(g.privateDefs(),
		g.stmts(1+g.rng.Intn(g.cfg.MaxStmts), []idxInfo{{"k", iters - 1}}, true)...)
	return &ir.Region{
		Name: "r", Kind: ir.LoopRegion, Index: "k", From: from, To: to, Step: step,
		Segments: []*ir.Segment{{ID: 0, Body: body}},
	}
}

func (g *gen) cfgRegion() *ir.Region {
	n := 3 + g.rng.Intn(3)
	segs := make([]*ir.Segment, n)
	for i := 0; i < n; i++ {
		segs[i] = &ir.Segment{
			ID:   i,
			Name: fmt.Sprintf("s%d", i),
			Body: append(g.privateDefs(), g.stmts(1+g.rng.Intn(g.cfg.MaxStmts), nil, false)...),
		}
	}
	// Edges: forward-only. Each segment links to the next; some branch to
	// a random later segment.
	for i := 0; i < n-1; i++ {
		segs[i].Succs = []int{i + 1}
		if i+2 < n && g.rng.Intn(3) == 0 {
			other := i + 2 + g.rng.Intn(n-i-2)
			segs[i].Succs = append(segs[i].Succs, other)
			segs[i].Branch = g.expr(nil, 1)
		}
	}
	return &ir.Region{Name: "r", Kind: ir.CFGRegion, Segments: segs}
}

// stmts generates a statement list. indices are the in-scope loop
// indices; allowExit permits early-exit statements (loop regions only).
// A loop, burst or call that would nest past ir.MaxAffDepth becomes an
// assignment, decided after the slot's roll so shallower programs keep
// their random sequence.
func (g *gen) stmts(n int, indices []idxInfo, allowExit bool) []ir.Stmt {
	var out []ir.Stmt
	for i := 0; i < n; i++ {
		roll := g.rng.Intn(100)
		switch {
		case roll < g.cfg.CondPct && g.depth < g.cfg.MaxDepth:
			g.depth++
			s := &ir.If{
				Cond: g.expr(indices, 1),
				Then: g.stmts(1+g.rng.Intn(2), indices, false),
			}
			if g.rng.Intn(2) == 0 {
				s.Else = g.stmts(1+g.rng.Intn(2), indices, false)
			}
			g.depth--
			out = append(out, s)
		case roll < g.cfg.CondPct+g.cfg.LoopPct+g.cfg.BurstPct && g.depth < g.cfg.MaxDepth &&
			g.loops >= ir.MaxAffDepth:
			// A loop or burst here would nest past the cap.
			out = append(out, g.assign(indices))
		case roll < g.cfg.CondPct+g.cfg.LoopPct && g.depth < g.cfg.MaxDepth:
			g.depth++
			g.loops++
			trip := g.rng.Intn(g.cfg.MaxInnerTrip) + 1
			idx := idxInfo{name: fmt.Sprintf("j%d", g.depth), max: trip}
			inner := append(append([]idxInfo{}, indices...), idx)
			out = append(out, &ir.For{
				Index: idx.name, From: 0, To: trip, Step: 1,
				Body: g.stmts(1+g.rng.Intn(2), inner, false),
			})
			g.loops--
			g.depth--
		case roll < g.cfg.CondPct+g.cfg.LoopPct+g.cfg.BurstPct && g.depth < g.cfg.MaxDepth:
			out = append(out, g.writeBurst(indices))
		case roll < g.cfg.CondPct+g.cfg.LoopPct+g.cfg.BurstPct+g.cfg.ExitPct && allowExit:
			out = append(out, &ir.ExitRegion{Cond: g.expr(indices, 1)})
			g.sc.EarlyExit = true
		case roll < g.cfg.CondPct+g.cfg.LoopPct+g.cfg.BurstPct+g.cfg.ExitPct+g.cfg.CallPct && len(g.procs) > 0:
			out = append(out, g.call(indices))
		default:
			out = append(out, g.assign(indices))
		}
	}
	return out
}

// writeBurst emits a dense store loop: every iteration writes a distinct
// cell of one array, inflating the segment's speculative footprint (the
// buffer-pressure regime).
func (g *gen) writeBurst(indices []idxInfo) ir.Stmt {
	a := g.arrays[g.rng.Intn(len(g.arrays))]
	dim := a.Dims[0]
	trip := 2 * g.cfg.MaxInnerTrip
	if trip > dim-1 {
		trip = dim - 1
	}
	if trip < 1 {
		trip = 1
	}
	base := 0
	if room := dim - 1 - trip; room > 0 {
		base = g.rng.Intn(room + 1)
	}
	g.depth++
	idx := idxInfo{name: fmt.Sprintf("j%d", g.depth), max: trip}
	sub := ir.AddE(ir.Idx(idx.name), ir.C(int64(base)))
	burst := &ir.For{
		Index: idx.name, From: 0, To: trip, Step: 1,
		Body: []ir.Stmt{&ir.Assign{
			LHS: ir.Wr(a, sub),
			RHS: g.expr(append(append([]idxInfo{}, indices...), idx), 1),
		}},
	}
	g.depth--
	g.sc.WriteBurst = true
	return burst
}

func (g *gen) assign(indices []idxInfo) ir.Stmt {
	return &ir.Assign{LHS: g.writeRef(indices), RHS: g.expr(indices, 0)}
}

// writeRef picks a store target: a shared or private scalar, or a
// writable array cell. Read-only arrays are never written.
func (g *gen) writeRef(indices []idxInfo) *ir.Ref {
	if g.rng.Intn(3) == 0 {
		pool := g.scalars
		if len(g.privates) > 0 && g.rng.Intn(3) == 0 {
			pool = g.privates
		}
		return ir.Wr(pool[g.rng.Intn(len(pool))])
	}
	a := g.arrays[g.rng.Intn(len(g.arrays))]
	return ir.Wr(a, g.subscript(indices, a.Dims[0]))
}

// subscript produces a subscript expression of one of the configured
// classes: in-bounds affine, in-bounds coupled (two indices), or
// indirect (whose value the engine wraps and the analysis treats
// conservatively).
func (g *gen) subscript(indices []idxInfo, dim int) ir.Expr {
	total := g.cfg.Subs.Affine + g.cfg.Subs.Indirect + g.cfg.Subs.Coupled
	if total <= 0 {
		return g.affine(indices, dim)
	}
	roll := g.rng.Intn(total)
	switch {
	case roll < g.cfg.Subs.Indirect:
		pool := append(append([]*ir.Var{}, g.arrays...), g.roArrays...)
		a := pool[g.rng.Intn(len(pool))]
		g.sc.Indirect = true
		return ir.Rd(a, g.affine(indices, a.Dims[0]))
	case roll < g.cfg.Subs.Indirect+g.cfg.Subs.Coupled && len(indices) >= 2:
		return g.coupled(indices, dim)
	default:
		return g.affine(indices, dim)
	}
}

// coupled builds s1*i1 + s2*i2 + c over two distinct in-scope indices
// with s1*max1 + s2*max2 + c <= dim-1.
func (g *gen) coupled(indices []idxInfo, dim int) ir.Expr {
	i1 := indices[g.rng.Intn(len(indices))]
	i2 := i1
	for tries := 0; i2.name == i1.name && tries < 4; tries++ {
		i2 = indices[g.rng.Intn(len(indices))]
	}
	if i2.name == i1.name || i1.max+i2.max > dim-1 {
		return g.affine(indices, dim)
	}
	s1 := 1
	if i1.max > 0 && 2*i1.max+i2.max <= dim-1 && g.rng.Intn(2) == 0 {
		s1 = 2
	}
	room := dim - 1 - s1*i1.max - i2.max
	c := 0
	if room > 0 {
		c = g.rng.Intn(room + 1)
	}
	g.sc.Coupled = true
	e := ir.AddE(ir.MulE(ir.C(int64(s1)), ir.Idx(i1.name)), ir.Idx(i2.name))
	if c != 0 {
		e = ir.AddE(e, ir.C(int64(c)))
	}
	return e
}

// affine builds scale*idx + c with scale*idxMax + c <= dim-1.
func (g *gen) affine(indices []idxInfo, dim int) ir.Expr {
	if len(indices) > 0 && g.rng.Intn(4) != 0 {
		idx := indices[g.rng.Intn(len(indices))]
		maxScale := 0
		if idx.max > 0 {
			maxScale = (dim - 1) / idx.max
		}
		if maxScale > 2 {
			maxScale = 2
		}
		if maxScale >= 1 {
			scale := 1 + g.rng.Intn(maxScale)
			room := dim - 1 - scale*idx.max
			c := 0
			if room > 0 {
				c = g.rng.Intn(room + 1)
			}
			return ir.AddE(ir.MulE(ir.C(int64(scale)), ir.Idx(idx.name)), ir.C(int64(c)))
		}
	}
	return ir.C(int64(g.rng.Intn(dim)))
}

// readableScalars is the pool an expression may load from: shared
// scalars always, private scalars too (their unconditional segment-top
// definition precedes every use).
func (g *gen) readableScalars() []*ir.Var {
	if len(g.privates) == 0 {
		return g.scalars
	}
	return append(append([]*ir.Var{}, g.scalars...), g.privates...)
}

// expr generates a right-hand-side expression; depth bounds recursion.
func (g *gen) expr(indices []idxInfo, depth int) ir.Expr {
	if depth > 2 {
		return ir.C(int64(g.rng.Intn(7) - 3))
	}
	switch g.rng.Intn(6) {
	case 0:
		return ir.C(int64(g.rng.Intn(9) - 4))
	case 1:
		if len(indices) > 0 {
			return ir.Idx(indices[g.rng.Intn(len(indices))].name)
		}
		return ir.C(1)
	case 2:
		pool := g.readableScalars()
		return ir.Rd(pool[g.rng.Intn(len(pool))])
	case 3:
		pool := append(append([]*ir.Var{}, g.arrays...), g.roArrays...)
		a := pool[g.rng.Intn(len(pool))]
		return ir.Rd(a, g.subscript(indices, a.Dims[0]))
	default:
		ops := []ir.BinOp{ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Lt, ir.Gt, ir.Eq, ir.And}
		return ir.Op(ops[g.rng.Intn(len(ops))],
			g.expr(indices, depth+1), g.expr(indices, depth+1))
	}
}

// sharedExpr is expr restricted to non-private operands (used for the
// private-scalar definitions themselves).
func (g *gen) sharedExpr(indices []idxInfo, depth int) ir.Expr {
	saved := g.privates
	g.privates = nil
	e := g.expr(indices, depth)
	g.privates = saved
	return e
}
