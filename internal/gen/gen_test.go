package gen

import (
	"testing"

	"refidem/internal/ir"
	"refidem/internal/lang"
)

// TestGeneratedProgramsValidate: every profile emits valid programs for
// many seeds.
func TestGeneratedProgramsValidate(t *testing.T) {
	for _, prof := range Profiles() {
		for seed := int64(0); seed < 120; seed++ {
			sc := FromProfile(prof, seed)
			if err := sc.Program.Validate(); err != nil {
				t.Fatalf("profile %s seed %d: invalid program: %v\n%s",
					prof.Name, seed, err, sc.Program.Format())
			}
		}
	}
}

// TestGenerateDeterministic: identical (seed, config) pairs produce
// byte-identical programs and fingerprints.
func TestGenerateDeterministic(t *testing.T) {
	for _, prof := range Profiles() {
		for seed := int64(0); seed < 25; seed++ {
			a := FromProfile(prof, seed)
			b := FromProfile(prof, seed)
			if a.Fingerprint != b.Fingerprint {
				t.Fatalf("profile %s seed %d: fingerprints differ", prof.Name, seed)
			}
			if a.Program.Format() != b.Program.Format() {
				t.Fatalf("profile %s seed %d: formatted programs differ", prof.Name, seed)
			}
			if a.String() != b.String() {
				t.Fatalf("profile %s seed %d: scenario records differ", prof.Name, seed)
			}
		}
	}
}

// TestPrinterRoundTrip: the printed program reparses to a program with
// the same content fingerprint — the generator, printer and parser agree
// on the language.
func TestPrinterRoundTrip(t *testing.T) {
	for _, prof := range Profiles() {
		for seed := int64(0); seed < 60; seed++ {
			sc := FromProfile(prof, seed)
			text := sc.Program.Format()
			q, err := lang.Parse(text)
			if err != nil {
				t.Fatalf("profile %s seed %d: reparse failed: %v\n%s", prof.Name, seed, err, text)
			}
			if ir.FingerprintOf(q) != sc.Fingerprint {
				t.Fatalf("profile %s seed %d: round trip changed the program\n%s",
					prof.Name, seed, text)
			}
		}
	}
}

// TestProfileFeatureCoverage: each profile actually produces the features
// it is named after, somewhere in a modest seed range.
func TestProfileFeatureCoverage(t *testing.T) {
	within := func(name string, hit func(*Scenario) bool) {
		t.Helper()
		prof, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 200; seed++ {
			if hit(FromProfile(prof, seed)) {
				return
			}
		}
		t.Errorf("profile %s never produced its feature in 200 seeds", name)
	}
	within("indirect", func(s *Scenario) bool { return s.Indirect })
	within("coupled", func(s *Scenario) bool { return s.Coupled })
	within("cfg", func(s *Scenario) bool { return s.CFGRegions == s.Regions && s.Regions > 0 })
	within("multiregion", func(s *Scenario) bool { return s.Regions == 4 })
	within("exits", func(s *Scenario) bool { return s.EarlyExit })
	within("private", func(s *Scenario) bool { return s.PrivateScalars == 3 })
	within("readonly", func(s *Scenario) bool { return s.ReadOnlyArrays == 3 })
	within("pressure", func(s *Scenario) bool { return s.WriteBurst })
	within("default", func(s *Scenario) bool { return s.Downto })
}

// TestAffineProfileIsRestricted: the affine profile never emits CFG
// regions, exits, indirect or coupled subscripts.
func TestAffineProfileIsRestricted(t *testing.T) {
	prof, err := ProfileByName("affine")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 150; seed++ {
		sc := FromProfile(prof, seed)
		if sc.CFGRegions > 0 || sc.EarlyExit || sc.Indirect || sc.Coupled {
			t.Fatalf("seed %d: affine profile produced excluded feature: %s", seed, sc)
		}
	}
}

// TestGenerateToleratesPartialConfig: zero-valued sizing knobs are
// clamped, never panicking rand.Intn, and configurations that would nest
// loops past ir.MaxAffDepth, directly or through calls, stop at the cap.
func TestGenerateToleratesPartialConfig(t *testing.T) {
	deepest := 0
	for _, cfg := range []Config{
		{},
		{Regions: 2, CFGPct: 100},
		{MaxScalars: 1, MaxArrays: 1, LoopPct: 100, MaxDepth: 2},
		{MaxStmts: 3, CondPct: 100, MaxDepth: 1, BurstPct: 100},
		{MaxDepth: 10, LoopPct: 100},
		{Procs: 4, CallPct: 40, LoopPct: 60, MaxDepth: 3},
	} {
		for seed := int64(0); seed < 30; seed++ {
			sc := Generate(seed, cfg)
			if err := sc.Program.Validate(); err != nil {
				t.Fatalf("cfg %+v seed %d: %v", cfg, seed, err)
			}
			for _, r := range sc.Program.Regions {
				for _, ref := range r.Refs {
					deepest = max(deepest, len(ref.Ctx.Loops))
				}
			}
		}
	}
	if deepest != ir.MaxAffDepth {
		t.Errorf("deepest generated nest is %d, want the cap %d", deepest, ir.MaxAffDepth)
	}
}

// TestAffineLoopShape: the oracle generator emits only straight-line
// assignments and counted inner loops (the shape the exhaustive trace
// oracles require), with purely affine subscripts.
func TestAffineLoopShape(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		p := AffineLoop(seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r := p.Regions[0]
		if r.Kind != ir.LoopRegion {
			t.Fatalf("seed %d: not a loop region", seed)
		}
		ir.WalkStmts(r.Segments[0].Body, func(s ir.Stmt) {
			switch s.(type) {
			case *ir.Assign, *ir.For:
			default:
				t.Fatalf("seed %d: forbidden statement %T", seed, s)
			}
		})
		for _, ref := range r.Refs {
			if !ir.AddrCertain(ref) {
				t.Fatalf("seed %d: non-affine reference %v", seed, ref)
			}
		}
	}
}
