// Package experiments regenerates every figure of the paper's evaluation
// (§5): Figure 5 (idempotent reference fractions across the 13-benchmark
// suite) and Figures 6-9 (per-category loop studies: reference ratios and
// HOSE-vs-CASE speedups), plus the ablations DESIGN.md calls out.
// cmd/figures prints them; bench_test.go wraps each in a testing.B
// benchmark.
package experiments

import (
	"fmt"
	"sync"

	"refidem/internal/engine"
	"refidem/internal/idem"
	"refidem/internal/ir"
	"refidem/internal/lru"
	"refidem/internal/parallel"
	"refidem/internal/workloads"
)

// LoopResult holds everything the loop figures report about one loop.
type LoopResult struct {
	Spec workloads.LoopSpec
	// Fractions of dynamic references per idempotency category, measured
	// on the CASE run's retired executions.
	ReadOnly  float64
	Private   float64
	SharedDep float64
	FullyInd  float64
	Idem      float64

	SeqCycles   int64
	HoseCycles  int64
	CaseCycles  int64
	HoseSpeedup float64
	CaseSpeedup float64

	HoseStats engine.Stats
	CaseStats engine.Stats
}

// labelMemo memoizes program labelings by content fingerprint across
// every experiment and sweep in the process. Sweeps rebuild the same
// program per point; the memo runs dataflow+deps+RFW+Algorithm 2 (and the
// theorem cross-check) once per distinct program and shares the canonical
// labeled program with all workers. Its one lock is held while labeling,
// so the workers of a parallel.Map fan-out wait for the first labeling of
// their program instead of repeating it; experiments label a few dozen
// programs per process.
type labelMemo struct {
	mu           sync.Mutex
	progs        *lru.Cache[ir.Fingerprint, labeledProgram]
	hits, misses int64
}

type labeledProgram struct {
	p    *ir.Program
	labs map[*ir.Region]*idem.Result
}

// labelMemoCap bounds the memo in programs.
const labelMemoCap = 128

var labelCache = labelMemo{progs: lru.New[ir.Fingerprint, labeledProgram](labelMemoCap)}

// labeled returns the canonical program for p's content with its
// labeling: p itself on a miss and the earlier structurally identical
// program on a hit. Callers run the returned program (the labeling is
// keyed by its ref identities) and must not mutate the labeling. A
// program that fails validation or the theorem check is returned with
// the error and not memoized.
func (m *labelMemo) labeled(p *ir.Program) (*ir.Program, map[*ir.Region]*idem.Result, error) {
	fp := ir.FingerprintOf(p)
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.progs.Get(fp); ok {
		m.hits++
		return e.p, e.labs, nil
	}
	m.misses++
	if err := p.Validate(); err != nil {
		return p, nil, err
	}
	labs := idem.LabelProgram(p)
	for _, r := range p.Regions {
		if errs := labs[r].CheckTheorems(); len(errs) > 0 {
			return p, nil, fmt.Errorf("region %s: theorem check failed: %v", r.Name, errs[0])
		}
	}
	m.progs.Put(fp, labeledProgram{p: p, labs: labs})
	return p, labs, nil
}

// LabelCacheStats exposes the shared labeling memo's hit/miss counters
// (tests assert sweeps label each program exactly once).
func LabelCacheStats() (hits, misses int64) {
	labelCache.mu.Lock()
	defer labelCache.mu.Unlock()
	return labelCache.hits, labelCache.misses
}

// ResetLabelCache clears the shared labeling memo and its counters.
func ResetLabelCache() {
	labelCache.mu.Lock()
	defer labelCache.mu.Unlock()
	labelCache.progs = lru.New[ir.Fingerprint, labeledProgram](labelMemoCap)
	labelCache.hits, labelCache.misses = 0, 0
}

// RunLoop executes one named loop under all three models and cross-checks
// correctness (any mismatch is an error: the experiments refuse to report
// numbers from a broken run).
func RunLoop(spec workloads.LoopSpec, cfg engine.Config) (LoopResult, error) {
	p := spec.Program()
	return runProgram(p, cfg, LoopResult{Spec: spec})
}

func runProgram(p *ir.Program, cfg engine.Config, out LoopResult) (LoopResult, error) {
	p, labs, err := labelCache.labeled(p)
	if err != nil {
		return out, fmt.Errorf("%s: %w", p.Name, err)
	}
	seq, err := engine.RunSequential(p, cfg)
	if err != nil {
		return out, err
	}
	hose, err := engine.RunSpeculative(p, labs, cfg, engine.HOSE)
	if err != nil {
		return out, err
	}
	caseR, err := engine.RunSpeculative(p, labs, cfg, engine.CASE)
	if err != nil {
		return out, err
	}
	if err := engine.LiveOutMismatch(p, labs, seq, hose); err != nil {
		return out, fmt.Errorf("%s: HOSE incorrect: %w", p.Name, err)
	}
	if err := engine.LiveOutMismatch(p, labs, seq, caseR); err != nil {
		return out, fmt.Errorf("%s: CASE incorrect: %w", p.Name, err)
	}
	s := caseR.Stats
	total := float64(s.DynRefs)
	if total > 0 {
		out.ReadOnly = float64(s.RefsByCategory[idem.CatReadOnly]) / total
		out.Private = float64(s.RefsByCategory[idem.CatPrivate]) / total
		out.SharedDep = float64(s.RefsByCategory[idem.CatSharedDependent]) / total
		out.FullyInd = float64(s.RefsByCategory[idem.CatFullyIndependent]) / total
		out.Idem = float64(s.IdemRefs) / total
	}
	out.SeqCycles = seq.Cycles
	out.HoseCycles = hose.Cycles
	out.CaseCycles = caseR.Cycles
	out.HoseSpeedup = float64(seq.Cycles) / float64(hose.Cycles)
	out.CaseSpeedup = float64(seq.Cycles) / float64(caseR.Cycles)
	out.HoseStats = hose.Stats
	out.CaseStats = caseR.Stats
	return out, nil
}

// Fig5Row is one benchmark bar of Figure 5.
type Fig5Row struct {
	Bench         string  `json:"bench"`
	FullyParallel bool    `json:"fully_parallel"`
	ReadOnly      float64 `json:"read_only_frac"`
	Private       float64 `json:"private_frac"`
	SharedDep     float64 `json:"shared_dependent_frac"`
	Total         float64 `json:"idempotent_frac"`
}

// Figure5 measures the fraction of idempotent references (by category) in
// the non-parallelizable sections of the 13-benchmark suite. workers
// bounds the parallel simulator fan-out (<=0: all cores).
func Figure5(cfg engine.Config, workers int) ([]Fig5Row, error) {
	suite := workloads.Suite()
	type res struct {
		row Fig5Row
		err error
	}
	rows := parallel.Map(len(suite), workers, func(i int) res {
		b := suite[i]
		if b.FullyParallel {
			// No non-parallelizable sections: the Figure 5 fraction is
			// measured over an empty set.
			return res{row: Fig5Row{Bench: b.Name, FullyParallel: true}}
		}
		lr, err := runProgram(b.Program(), cfg, LoopResult{})
		if err != nil {
			return res{err: fmt.Errorf("%s: %w", b.Name, err)}
		}
		return res{row: Fig5Row{
			Bench:     b.Name,
			ReadOnly:  lr.ReadOnly,
			Private:   lr.Private,
			SharedDep: lr.SharedDep,
			Total:     lr.Idem,
		}}
	})
	out := make([]Fig5Row, 0, len(rows))
	for _, r := range rows {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.row)
	}
	return out, nil
}

// FigureLoops runs the named loops of one figure (6, 7, 8 or 9).
func FigureLoops(fig int, cfg engine.Config, workers int) ([]LoopResult, error) {
	var specs []workloads.LoopSpec
	for _, s := range workloads.NamedLoops() {
		if s.Fig == fig {
			specs = append(specs, s)
		}
	}
	type res struct {
		lr  LoopResult
		err error
	}
	rows := parallel.Map(len(specs), workers, func(i int) res {
		lr, err := RunLoop(specs[i], cfg)
		return res{lr: lr, err: err}
	})
	out := make([]LoopResult, 0, len(rows))
	for _, r := range rows {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.lr)
	}
	return out, nil
}

// CapacityPoint is one speculative-storage-capacity sweep sample.
type CapacityPoint struct {
	Capacity      int     `json:"capacity"`
	HoseSpeedup   float64 `json:"hose_speedup"`
	CaseSpeedup   float64 `json:"case_speedup"`
	HoseOverflows int64   `json:"hose_overflows"`
}

// AblationCapacity sweeps the speculative storage capacity on one loop,
// showing where HOSE falls off the overflow cliff and how insensitive
// CASE is (the central claim of the paper).
func AblationCapacity(spec workloads.LoopSpec, capacities []int, cfg engine.Config, workers int) ([]CapacityPoint, error) {
	type res struct {
		pt  CapacityPoint
		err error
	}
	rows := parallel.Map(len(capacities), workers, func(i int) res {
		c := cfg
		c.SpecCapacity = capacities[i]
		lr, err := RunLoop(spec, c)
		if err != nil {
			return res{err: err}
		}
		return res{pt: CapacityPoint{
			Capacity:      capacities[i],
			HoseSpeedup:   lr.HoseSpeedup,
			CaseSpeedup:   lr.CaseSpeedup,
			HoseOverflows: lr.HoseStats.Overflows,
		}}
	})
	out := make([]CapacityPoint, 0, len(rows))
	for _, r := range rows {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.pt)
	}
	return out, nil
}

// CategoryAblationRow reports CASE speedup with only a subset of
// categories allowed to bypass speculative storage.
type CategoryAblationRow struct {
	Enabled  string  `json:"enabled"`
	Speedup  float64 `json:"speedup"`
	IdemFrac float64 `json:"idempotent_frac"`
}

// AblationCategories re-runs a loop with labeling restricted to one
// category at a time (demoting a reference to speculative is always
// safe), quantifying each category's contribution to the CASE speedup.
func AblationCategories(spec workloads.LoopSpec, cfg engine.Config) ([]CategoryAblationRow, error) {
	cats := []struct {
		name string
		keep map[idem.Category]bool
	}{
		{"none (HOSE)", map[idem.Category]bool{}},
		{"read-only", map[idem.Category]bool{idem.CatReadOnly: true}},
		{"private", map[idem.Category]bool{idem.CatPrivate: true}},
		{"shared-dependent", map[idem.Category]bool{idem.CatSharedDependent: true}},
		{"all (CASE)", map[idem.Category]bool{
			idem.CatReadOnly: true, idem.CatPrivate: true,
			idem.CatSharedDependent: true, idem.CatFullyIndependent: true,
		}},
	}
	p := spec.Program()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	seq, err := engine.RunSequential(p, cfg)
	if err != nil {
		return nil, err
	}
	var out []CategoryAblationRow
	for _, c := range cats {
		labs := idem.LabelProgram(p)
		for _, res := range labs {
			for _, ref := range res.Region.Refs {
				if res.Label(ref) == idem.Idempotent && !c.keep[res.Category(ref)] {
					res.SetLabel(ref, idem.Speculative)
				}
			}
		}
		r, err := engine.RunSpeculative(p, labs, cfg, engine.CASE)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		if err := engine.LiveOutMismatch(p, labs, seq, r); err != nil {
			return nil, fmt.Errorf("%s: incorrect: %w", c.name, err)
		}
		frac := 0.0
		if r.Stats.DynRefs > 0 {
			frac = float64(r.Stats.IdemRefs) / float64(r.Stats.DynRefs)
		}
		out = append(out, CategoryAblationRow{
			Enabled:  c.name,
			Speedup:  float64(seq.Cycles) / float64(r.Cycles),
			IdemFrac: frac,
		})
	}
	return out, nil
}

// GranularityPoint is one segment-size sample of the granularity sweep.
type GranularityPoint struct {
	Block         int     `json:"iters_per_segment"`
	HoseSpeedup   float64 `json:"hose_speedup"`
	CaseSpeedup   float64 `json:"case_speedup"`
	HoseOverflows int64   `json:"hose_overflows"`
	HosePeak      int     `json:"hose_peak_occupancy"`
	CasePeak      int     `json:"case_peak_occupancy"`
}

// AblationGranularity re-partitions a loop into segments of `block`
// iterations each and measures both models. This quantifies the paper's
// introductory argument: "larger threads exacerbate the overflow problem
// but are preferable to smaller threads, as larger threads uncover more
// parallelism" — under CASE, idempotent references don't occupy
// speculative storage, so large segments become affordable.
func AblationGranularity(np NamedProgram, blocks []int, cfg engine.Config, workers int) ([]GranularityPoint, error) {
	type res struct {
		pt  GranularityPoint
		err error
	}
	rows := parallel.Map(len(blocks), workers, func(i int) res {
		p, err := ir.BlockProgram(np.Make(), blocks[i])
		if err != nil {
			return res{err: fmt.Errorf("block %d: %w", blocks[i], err)}
		}
		lr, err := runProgram(p, cfg, LoopResult{})
		if err != nil {
			return res{err: fmt.Errorf("block %d: %w", blocks[i], err)}
		}
		return res{pt: GranularityPoint{
			Block:         blocks[i],
			HoseSpeedup:   lr.HoseSpeedup,
			CaseSpeedup:   lr.CaseSpeedup,
			HoseOverflows: lr.HoseStats.Overflows,
			HosePeak:      lr.HoseStats.PeakSpecOccupancy,
			CasePeak:      lr.CaseStats.PeakSpecOccupancy,
		}}
	})
	out := make([]GranularityPoint, 0, len(rows))
	for _, r := range rows {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.pt)
	}
	return out, nil
}

// DirectionRow compares idempotent fractions under the precise
// (execution-order directed) dependence analysis and under a conservative
// direction-less one.
type DirectionRow struct {
	Loop             string  `json:"loop"`
	PreciseFrac      float64 `json:"precise_frac"`
	ConservativeFrac float64 `json:"conservative_frac"`
}

// AssocPoint is one speculative-storage-organization sample.
type AssocPoint struct {
	Label         string  `json:"organization"`
	HoseSpeedup   float64 `json:"hose_speedup"`
	CaseSpeedup   float64 `json:"case_speedup"`
	HoseOverflows int64   `json:"hose_overflows"`
}

// AblationAssociativity compares speculative storage organizations at
// equal total capacity: fully associative versus set-associative with
// increasing conflict pressure. Set conflicts overflow before capacity is
// exhausted, so HOSE degrades; CASE's bypassed references feel none of it.
func AblationAssociativity(spec workloads.LoopSpec, cfg engine.Config, workers int) ([]AssocPoint, error) {
	orgs := []struct {
		label string
		sets  int
	}{
		{"fully associative", 0},
		{"16 sets x 8 ways", 16},
		{"32 sets x 4 ways", 32},
		{"64 sets x 2 ways", 64},
		{"128 sets x 1 way", 128},
	}
	type res struct {
		pt  AssocPoint
		err error
	}
	rows := parallel.Map(len(orgs), workers, func(i int) res {
		c := cfg
		c.SpecSets = orgs[i].sets
		lr, err := RunLoop(spec, c)
		if err != nil {
			return res{err: fmt.Errorf("%s: %w", orgs[i].label, err)}
		}
		return res{pt: AssocPoint{
			Label:         orgs[i].label,
			HoseSpeedup:   lr.HoseSpeedup,
			CaseSpeedup:   lr.CaseSpeedup,
			HoseOverflows: lr.HoseStats.Overflows,
		}}
	})
	out := make([]AssocPoint, 0, len(rows))
	for _, r := range rows {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.pt)
	}
	return out, nil
}

// NamedProgram pairs a display name with a fresh-program constructor
// (labelings must not share reference identities across runs).
type NamedProgram struct {
	Name string
	Make func() *ir.Program
}

// AblationDepDirection quantifies how much the execution-order direction
// information in the dependence analysis is worth: with bidirectional
// may-dependences, anti-dependence sources become sinks and Lemma 3
// forces them speculative. (Static fractions; the BUTS_DO1 S1 reads of
// Figure 4 are the canonical casualties.)
//
// Both labelings run at program level so multi-region programs see the
// same inter-region liveness every other consumer of LabelProgram does;
// the reported fraction aggregates static references across all regions.
// For the canonical single-region loops this equals the former per-region
// computation with the conservative live-out default.
func AblationDepDirection(progs []NamedProgram) []DirectionRow {
	var out []DirectionRow
	for _, np := range progs {
		pf := staticIdemFraction(idem.LabelProgram(np.Make()))
		cf := staticIdemFraction(idem.LabelProgramConservative(np.Make()))
		out = append(out, DirectionRow{Loop: np.Name, PreciseFrac: pf, ConservativeFrac: cf})
	}
	return out
}

// staticIdemFraction is the fraction of static references labeled
// idempotent over every region of the program.
func staticIdemFraction(labs map[*ir.Region]*idem.Result) float64 {
	total, cnt := 0, 0
	for _, res := range labs {
		total += len(res.Region.Refs)
		for _, ref := range res.Region.Refs {
			if res.Label(ref) == idem.Idempotent {
				cnt++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(cnt) / float64(total)
}

// DefaultDirectionPrograms returns the canonical inputs for the
// dependence-direction ablation: the Figure 4 BUTS loop plus the Figure
// 6/8 loops.
func DefaultDirectionPrograms() []NamedProgram {
	out := []NamedProgram{
		{Name: "APPLU BUTS_DO1", Make: func() *ir.Program { return workloads.ButsDO1(8) }},
	}
	for _, s := range workloads.NamedLoops() {
		if s.Fig == 6 || s.Fig == 8 {
			spec := s
			out = append(out, NamedProgram{Name: spec.String(), Make: func() *ir.Program { return spec.Program() }})
		}
	}
	return out
}

// ProcessorPoint is one processor-count scaling sample.
type ProcessorPoint struct {
	Processors  int     `json:"processors"`
	HoseSpeedup float64 `json:"hose_speedup"`
	CaseSpeedup float64 `json:"case_speedup"`
}

// AblationProcessors sweeps the processor count.
func AblationProcessors(spec workloads.LoopSpec, procs []int, cfg engine.Config, workers int) ([]ProcessorPoint, error) {
	type res struct {
		pt  ProcessorPoint
		err error
	}
	rows := parallel.Map(len(procs), workers, func(i int) res {
		c := cfg
		c.Processors = procs[i]
		lr, err := RunLoop(spec, c)
		if err != nil {
			return res{err: err}
		}
		return res{pt: ProcessorPoint{
			Processors:  procs[i],
			HoseSpeedup: lr.HoseSpeedup,
			CaseSpeedup: lr.CaseSpeedup,
		}}
	})
	out := make([]ProcessorPoint, 0, len(rows))
	for _, r := range rows {
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, r.pt)
	}
	return out, nil
}
