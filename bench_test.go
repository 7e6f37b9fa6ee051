package refidem

// The benchmark harness regenerates every figure of the paper's
// evaluation section under `go test -bench=.`: one benchmark per figure,
// reporting the headline series via b.ReportMetric so the shape of the
// paper's results (who wins, by what factor, where the crossovers are)
// can be read straight off the benchmark output. cmd/figures prints the
// full tables and bar charts.

import (
	"testing"

	"refidem/internal/cfg"
	"refidem/internal/deps"
	"refidem/internal/engine"
	"refidem/internal/experiments"
	"refidem/internal/idem"
	"refidem/internal/workloads"
)

// BenchmarkFigure5 regenerates Figure 5: the fraction of idempotent
// references in the non-parallelizable sections of the 13-benchmark
// suite. Reported metrics: benchmarks over the 60% line (the paper's
// headline says 7) and the mean idempotent fraction.
func BenchmarkFigure5(b *testing.B) {
	cfg := engine.DefaultConfig()
	var over60, mean float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure5(cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		over60, mean = 0, 0
		n := 0
		for _, r := range rows {
			if r.FullyParallel {
				continue
			}
			n++
			mean += r.Total
			if r.Total > 0.6 {
				over60++
			}
		}
		mean /= float64(n)
	}
	b.ReportMetric(over60, "benchmarks>60%")
	b.ReportMetric(mean*100, "%idem-mean")
}

// benchFigLoops runs one loop figure and reports per-loop HOSE/CASE
// speedups and the figure's category fraction.
func benchFigLoops(b *testing.B, fig int) {
	cfg := engine.DefaultConfig()
	var results []experiments.LoopResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.FigureLoops(fig, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	var hose, caseSp float64
	for _, lr := range results {
		hose += lr.HoseSpeedup
		caseSp += lr.CaseSpeedup
	}
	n := float64(len(results))
	b.ReportMetric(hose/n, "HOSE-speedup")
	b.ReportMetric(caseSp/n, "CASE-speedup")
}

// BenchmarkFigure6 regenerates Figure 6 (read-only loops: TOMCATV
// MAIN_DO80, WAVE5 PARMVR_DO120/DO140).
func BenchmarkFigure6(b *testing.B) { benchFigLoops(b, 6) }

// BenchmarkFigure7 regenerates Figure 7 (private loops: TURB3D DRCFT_DO2,
// APPLU SETBV_DO2).
func BenchmarkFigure7(b *testing.B) { benchFigLoops(b, 7) }

// BenchmarkFigure8 regenerates Figure 8 (shared-dependent loops).
func BenchmarkFigure8(b *testing.B) { benchFigLoops(b, 8) }

// BenchmarkFigure9 regenerates Figure 9 (fully-independent MGRID regions).
func BenchmarkFigure9(b *testing.B) { benchFigLoops(b, 9) }

// BenchmarkAblationCapacity sweeps speculative storage capacity on the
// TOMCATV loop, reporting HOSE's recovery point and CASE's insensitivity.
func BenchmarkAblationCapacity(b *testing.B) {
	spec, _ := workloads.FindLoop("TOMCATV", "MAIN_DO80")
	cfg := engine.DefaultConfig()
	caps := []int{8, 32, 128, 512, 1024}
	var pts []experiments.CapacityPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.AblationCapacity(spec, caps, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].HoseSpeedup, "HOSE@8")
	b.ReportMetric(pts[len(pts)-1].HoseSpeedup, "HOSE@1024")
	b.ReportMetric(pts[0].CaseSpeedup, "CASE@8")
}

// BenchmarkAblationCategories measures each labeling category's
// contribution to the CASE speedup on the TOMCATV loop.
func BenchmarkAblationCategories(b *testing.B) {
	spec, _ := workloads.FindLoop("TOMCATV", "MAIN_DO80")
	cfg := engine.DefaultConfig()
	var rows []experiments.CategoryAblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationCategories(spec, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Speedup, "none")
	b.ReportMetric(rows[1].Speedup, "read-only")
	b.ReportMetric(rows[len(rows)-1].Speedup, "all")
}

// BenchmarkAblationProcessors sweeps the processor count on the MGRID
// residual loop.
func BenchmarkAblationProcessors(b *testing.B) {
	spec, _ := workloads.FindLoop("MGRID", "RESID_DO600")
	cfg := engine.DefaultConfig()
	var pts []experiments.ProcessorPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.AblationProcessors(spec, []int{1, 4, 16}, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[1].CaseSpeedup, "CASE@4p")
	b.ReportMetric(pts[2].CaseSpeedup, "CASE@16p")
	b.ReportMetric(pts[2].HoseSpeedup, "HOSE@16p")
}

// BenchmarkAblationDepDirection compares the precise, execution-order
// directed dependence analysis against a direction-less one (static
// idempotent fractions; Figure 4's BUTS loop is the canonical case).
func BenchmarkAblationDepDirection(b *testing.B) {
	var rows []experiments.DirectionRow
	for i := 0; i < b.N; i++ {
		rows = experiments.AblationDepDirection(experiments.DefaultDirectionPrograms())
	}
	b.ReportMetric(rows[0].PreciseFrac*100, "%BUTS-precise")
	b.ReportMetric(rows[0].ConservativeFrac*100, "%BUTS-conservative")
}

// BenchmarkAnalysisPipeline measures the compiler half alone: full
// labeling of the BUTS_DO1 loop (dataflow, dependences, RFW, Algorithm 2).
func BenchmarkAnalysisPipeline(b *testing.B) {
	p := workloads.ButsDO1(8)
	if err := p.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LabelProgram(p)
	}
}

// BenchmarkAnalysisPipelineEnsemble is BenchmarkAnalysisPipeline with the
// sound dependence-ensemble members (range pre-filter, must-write-first)
// in the chain: same labels by construction, plus per-reference
// P(idempotent). The gap to the exact-only row is the chain's overhead.
func BenchmarkAnalysisPipelineEnsemble(b *testing.B) {
	p := workloads.ButsDO1(8)
	if err := p.Validate(); err != nil {
		b.Fatal(err)
	}
	ens := deps.Ensemble{Range: true, MustWriteFirst: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idem.LabelProgramEnsemble(p, ens)
	}
}

// BenchmarkDepsQueryExact measures the dependence solver plus a full
// sweep of the dense CSR query surface (SinksAt/SourcesAt over every
// reference) on the BUTS loop. The query sweep allocates nothing — the
// CSR slices are views — so allocs/op is the solver's alone and the
// bench gate pins it exactly.
func BenchmarkDepsQueryExact(b *testing.B) { benchDepsQuery(b, nil) }

// BenchmarkDepsQueryEnsemble is the same sweep through the collaborative
// ensemble with the sound members enabled: identical dependence set and
// query results, with the range member short-circuiting pairs ahead of
// the exact solver.
func BenchmarkDepsQueryEnsemble(b *testing.B) {
	benchDepsQuery(b, &deps.Ensemble{Range: true, MustWriteFirst: true})
}

func benchDepsQuery(b *testing.B, ens *deps.Ensemble) {
	p := workloads.ButsDO1(8)
	if err := p.Validate(); err != nil {
		b.Fatal(err)
	}
	r := p.Regions[0]
	g := cfg.FromRegion(r)
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var a *deps.Analysis
		if ens == nil {
			a = deps.Analyze(r, g)
		} else {
			a = deps.AnalyzeWith(r, g, ens)
		}
		for _, ref := range r.Refs {
			sink += len(a.SinksAt(ref)) + len(a.SourcesAt(ref))
		}
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkEngineHOSE and BenchmarkEngineCASE measure the simulator alone
// on the TOMCATV loop.
func BenchmarkEngineHOSE(b *testing.B) { benchEngine(b, false) }

// BenchmarkEngineCASE is the CASE-mode counterpart of BenchmarkEngineHOSE.
// It runs with the default nil speculation timeline, so its alloc gate
// also pins that the timeline hooks cost the disabled event loop nothing
// but pointer checks (engine.Config.Timeline documents the contract).
func BenchmarkEngineCASE(b *testing.B) { benchEngine(b, true) }

// BenchmarkEngineCapacitySweep runs HOSE on the TOMCATV loop with a
// different speculative-storage capacity each iteration, cycling through
// 64 to 8192 entries. Buffers are sized by occupancy and pooled buffers
// survive a capacity change, so its alloc gate pins that a capacity sweep
// allocates what a fixed-capacity run does, whatever the capacity.
func BenchmarkEngineCapacitySweep(b *testing.B) {
	spec, _ := workloads.FindLoop("TOMCATV", "MAIN_DO80")
	p := spec.Program()
	labs := LabelProgram(p)
	cfg := engine.DefaultConfig()
	if _, err := RunHOSE(p, labs, cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.SpecCapacity = 64 << (i % 8)
		if _, err := RunHOSE(p, labs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEngine(b *testing.B, useCase bool) {
	spec, _ := workloads.FindLoop("TOMCATV", "MAIN_DO80")
	p := spec.Program()
	labs := LabelProgram(p)
	cfg := engine.DefaultConfig()
	// Warm one run outside the timer so every measured iteration sees the
	// compiled-region cache hot.
	run := func() (err error) {
		if useCase {
			_, err = RunCASE(p, labs, cfg)
		} else {
			_, err = RunHOSE(p, labs, cfg)
		}
		return err
	}
	if err := run(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialBaseline measures the uniprocessor reference run.
func BenchmarkSequentialBaseline(b *testing.B) {
	spec, _ := workloads.FindLoop("TOMCATV", "MAIN_DO80")
	p := spec.Program()
	cfg := engine.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSequential(p, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGranularity sweeps iterations-per-segment on the MGRID
// residual loop: larger segments exacerbate HOSE overflow far more than
// they cost CASE (the paper's "larger threads" argument).
func BenchmarkAblationGranularity(b *testing.B) {
	spec, _ := workloads.FindLoop("MGRID", "RESID_DO600")
	np := experiments.NamedProgram{Name: spec.String(), Make: func() *Program { return spec.Program() }}
	cfg := engine.DefaultConfig()
	var pts []experiments.GranularityPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.AblationGranularity(np, []int{1, 3, 6}, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].HoseSpeedup-pts[2].HoseSpeedup, "HOSE-drop")
	b.ReportMetric(pts[0].CaseSpeedup-pts[2].CaseSpeedup, "CASE-drop")
}

// BenchmarkAblationAssociativity compares speculative storage
// organizations at equal capacity on the TOMCATV loop.
func BenchmarkAblationAssociativity(b *testing.B) {
	spec, _ := workloads.FindLoop("TOMCATV", "MAIN_DO80")
	cfg := engine.DefaultConfig()
	var pts []experiments.AssocPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.AblationAssociativity(spec, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].HoseSpeedup, "HOSE-fullassoc")
	b.ReportMetric(pts[len(pts)-1].HoseSpeedup, "HOSE-directmapped")
	b.ReportMetric(pts[0].CaseSpeedup, "CASE")
}
