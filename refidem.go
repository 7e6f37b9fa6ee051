// Package refidem is a library reproduction of "Reference Idempotency
// Analysis: A Framework for Optimizing Speculative Execution" (Kim, Ooi,
// Eigenmann, Falsafi, Vijaykumar — PPoPP 2001).
//
// The paper's observation: in speculatively multithreaded execution, many
// memory references can never violate a data dependence on their own.
// Such *idempotent* references need not be tracked in the small hardware
// speculative storage — they can access the conventional memory hierarchy
// directly, even though they may temporarily write incorrect values while
// a segment is misspeculated. Filtering them out relieves speculative
// storage overflow, the key bottleneck of speculative CMPs.
//
// The package bundles:
//
//   - a program representation for regions/segments (internal/ir) and a
//     small Fortran-flavoured front end (internal/lang, ParseProgram);
//   - the prerequisite compiler analyses: per-segment attributes,
//     liveness, privatization, read-only detection (internal/dataflow)
//     and reference-by-reference may-dependences (internal/deps);
//   - the paper's algorithms: re-occurring-first-write analysis
//     (Algorithm 1, internal/rfw) and idempotency labeling
//     (Algorithm 2 / Theorems 1-2, internal/idem);
//   - a deterministic cycle-level simulator of a Multiplex-style chip
//     multiprocessor executing under the sequential, HOSE
//     (hardware-only) and CASE (compiler-assisted) models
//     (internal/engine, internal/specmem, internal/vm);
//   - the paper's benchmarks and worked examples (internal/workloads)
//     and the harness regenerating every evaluation figure
//     (internal/experiments, cmd/figures).
//
// # Quick start
//
//	p, err := refidem.ParseProgram(src)   // or build ir.Program directly
//	labs := refidem.LabelProgram(p)       // Algorithm 2 on every region
//	rs, err := refidem.Run(p, refidem.DefaultConfig())
//	fmt.Println(rs.CaseSpeedup())         // HOSE vs CASE vs sequential
//
// See the examples/ directory for complete programs.
package refidem

import (
	"fmt"

	"refidem/internal/engine"
	"refidem/internal/idem"
	"refidem/internal/ir"
	"refidem/internal/lang"
)

// Re-exported core types. The ir package defines the program model, idem
// the labeling results, engine the machine configuration and run results.
type (
	// Program is a sequence of regions over a shared variable table.
	Program = ir.Program
	// Region is a single-entry single-exit code section whose segments
	// execute speculatively in parallel.
	Region = ir.Region
	// Ref is a single textual memory reference.
	Ref = ir.Ref
	// Labeling is the per-region output of the idempotency analysis.
	Labeling = idem.Result
	// Label is Speculative or Idempotent.
	Label = idem.Label
	// Category is the idempotency category of §4.1 of the paper.
	Category = idem.Category
	// Config carries the simulated machine parameters.
	Config = engine.Config
	// Result is the outcome of one simulated run.
	Result = engine.Result
)

// Label values.
const (
	Speculative = idem.Speculative
	Idempotent  = idem.Idempotent
)

// Categories.
const (
	CatSpeculative      = idem.CatSpeculative
	CatFullyIndependent = idem.CatFullyIndependent
	CatReadOnly         = idem.CatReadOnly
	CatPrivate          = idem.CatPrivate
	CatSharedDependent  = idem.CatSharedDependent
)

// ParseProgram compiles mini-language source text (see internal/lang for
// the grammar) into a validated Program.
func ParseProgram(src string) (*Program, error) { return lang.Parse(src) }

// LabelProgram runs the full analysis pipeline — dataflow, dependences,
// re-occurring-first-write analysis, Algorithm 2 — on every region.
func LabelProgram(p *Program) map[*Region]*Labeling { return idem.LabelProgram(p) }

// LabelRegion labels a single region (nil liveOut uses the region's
// annotation, or conservatively keeps every referenced variable live).
func LabelRegion(p *Program, r *Region) *Labeling { return idem.LabelRegion(p, r, nil) }

// DefaultConfig returns the 4-processor machine the paper's evaluation
// uses: kilobyte-scale speculative storage over an L1/L2/DRAM hierarchy.
func DefaultConfig() Config { return engine.DefaultConfig() }

// RunSequential executes the program serially (the correctness oracle and
// the speedup baseline). A program Validate rejects returns its error.
func RunSequential(p *Program, cfg Config) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return engine.RunSequential(p, cfg)
}

// RunHOSE executes the program under hardware-only speculative execution
// (Definition 2 of the paper): every reference is tracked in speculative
// storage. A program Validate rejects returns its error.
func RunHOSE(p *Program, labs map[*Region]*Labeling, cfg Config) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return engine.RunSpeculative(p, labs, cfg, engine.HOSE)
}

// RunCASE executes the program under compiler-assisted speculative
// execution (Definition 4): references labeled idempotent bypass the
// speculative storage. A program Validate rejects returns its error.
func RunCASE(p *Program, labs map[*Region]*Labeling, cfg Config) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return engine.RunSpeculative(p, labs, cfg, engine.CASE)
}

// RunSet bundles the three runs of one program on one machine.
type RunSet struct {
	Program   *Program
	Labelings map[*Region]*Labeling
	Seq       *Result
	Hose      *Result
	Case      *Result
}

// Run labels the program, executes it under all three models, and
// verifies both speculative runs against the sequential memory state
// (Definition 3); a mismatch is returned as an error.
func Run(p *Program, cfg Config) (*RunSet, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	labs := idem.LabelProgram(p)
	for r, res := range labs {
		if errs := res.CheckTheorems(); len(errs) > 0 {
			return nil, fmt.Errorf("refidem: region %q: %v", r.Name, errs[0])
		}
	}
	seq, err := engine.RunSequential(p, cfg)
	if err != nil {
		return nil, err
	}
	hose, err := engine.RunSpeculative(p, labs, cfg, engine.HOSE)
	if err != nil {
		return nil, err
	}
	caseR, err := engine.RunSpeculative(p, labs, cfg, engine.CASE)
	if err != nil {
		return nil, err
	}
	if err := engine.LiveOutMismatch(p, labs, seq, hose); err != nil {
		return nil, fmt.Errorf("refidem: HOSE run incorrect: %w", err)
	}
	if err := engine.LiveOutMismatch(p, labs, seq, caseR); err != nil {
		return nil, fmt.Errorf("refidem: CASE run incorrect: %w", err)
	}
	return &RunSet{Program: p, Labelings: labs, Seq: seq, Hose: hose, Case: caseR}, nil
}

// HoseSpeedup returns the HOSE speedup over the uniprocessor.
func (rs *RunSet) HoseSpeedup() float64 {
	return float64(rs.Seq.Cycles) / float64(rs.Hose.Cycles)
}

// CaseSpeedup returns the CASE speedup over the uniprocessor.
func (rs *RunSet) CaseSpeedup() float64 {
	return float64(rs.Seq.Cycles) / float64(rs.Case.Cycles)
}

// IdempotentFraction returns the dynamic fraction of references labeled
// idempotent, measured on the CASE run's retired executions.
func (rs *RunSet) IdempotentFraction() float64 {
	if rs.Case.Stats.DynRefs == 0 {
		return 0
	}
	return float64(rs.Case.Stats.IdemRefs) / float64(rs.Case.Stats.DynRefs)
}
