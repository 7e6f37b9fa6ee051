package ir_test

import (
	"os"
	"path/filepath"
	"testing"

	"refidem/internal/gen"
	"refidem/internal/ir"
	"refidem/internal/lang"
)

// corpusGlob names the checked-in reproducer corpus: hand-written
// programs covering procedures, CFG regions, early exits and annotations.
const corpusGlob = "../proptest/testdata/corpus/*.prog"

// corpusPrograms parses every corpus file, keyed by file name.
func corpusPrograms(t testing.TB) map[string]*ir.Program {
	t.Helper()
	paths, err := filepath.Glob(corpusGlob)
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus programs under %s (err %v)", corpusGlob, err)
	}
	out := make(map[string]*ir.Program, len(paths))
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := lang.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[filepath.Base(path)] = p
	}
	return out
}

// checkAgainstOracle compares every printer entry point on p with the
// fmt-based oracle (print_oracle_test.go): Format, Canonical,
// FingerprintOf, and per region Format and RegionFingerprintOf with no
// live-out bits, the declared live-out set and every variable live.
func checkAgainstOracle(t *testing.T, name string, p *ir.Program) {
	t.Helper()
	want, wantFP := ir.OracleCanonical(p)
	if got := p.Format(); got != want {
		t.Fatalf("%s: Format differs from the oracle:\n--- got\n%s--- want\n%s", name, got, want)
	}
	if got, fp := ir.Canonical(p); got != want || fp != wantFP {
		t.Fatalf("%s: Canonical differs from the oracle", name)
	}
	if ir.FingerprintOf(p) != wantFP {
		t.Fatalf("%s: FingerprintOf differs from the oracle", name)
	}
	for _, r := range p.Regions {
		if got, want := r.Format(), ir.OracleRegionFormat(r); got != want {
			t.Fatalf("%s: region %s Format differs from the oracle:\n--- got\n%s--- want\n%s", name, r.Name, got, want)
		}
		declared := func(v *ir.Var) bool { return r.Ann.LiveOut[v.Name] }
		all := func(*ir.Var) bool { return true }
		for _, live := range []func(*ir.Var) bool{nil, declared, all} {
			if ir.RegionFingerprintOf(p, r, live) != ir.OracleRegionFingerprintOf(p, r, live) {
				t.Fatalf("%s: region %s fingerprint differs from the oracle", name, r.Name)
			}
		}
	}
}

// restep rewrites every loop range of p, region and inner loops alike,
// to step magnitude k in its own direction. The generator only emits
// unit steps; the printer must also render " step N".
func restep(p *ir.Program, k int) {
	var walk func([]ir.Stmt)
	walk = func(stmts []ir.Stmt) {
		for _, st := range stmts {
			switch s := st.(type) {
			case *ir.For:
				s.Step = k * sign(s.Step)
				walk(s.Body)
			case *ir.If:
				walk(s.Then)
				walk(s.Else)
			}
		}
	}
	for _, pr := range p.Procs {
		walk(pr.Body)
	}
	for _, r := range p.Regions {
		if r.Kind == ir.LoopRegion {
			r.Step = k * sign(r.Step)
		}
		for _, s := range r.Segments {
			walk(s.Body)
		}
	}
}

func sign(n int) int {
	if n < 0 {
		return -1
	}
	return 1
}

// TestPrinterMatchesOracle is the printer's property test: at least 3000
// generated programs, every profile alike, each also with its loop steps
// widened, and every corpus program print byte-identically to the oracle.
func TestPrinterMatchesOracle(t *testing.T) {
	profiles := gen.Profiles()
	perProfile := int64(3000/len(profiles) + 1)
	for _, prof := range profiles {
		for seed := int64(0); seed < perProfile; seed++ {
			p := gen.FromProfile(prof, seed).Program
			checkAgainstOracle(t, prof.Name, p)
			restep(p, 2+int(seed%3))
			checkAgainstOracle(t, prof.Name+" restepped", p)
		}
	}
	for name, p := range corpusPrograms(t) {
		checkAgainstOracle(t, name, p)
	}
}

// TestPrinterAllocs pins the printer's allocations to a constant: a
// program's canonical form costs its string alone, and fingerprinting all
// of its regions costs nothing, however large the program. Scratch
// buffers come from a pool, so the counts hold in steady state.
func TestPrinterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under the race detector (sync.Pool sheds items)")
	}
	p := corpusPrograms(t)["seed-proc-calls.prog"]
	if p == nil || len(p.Procs) == 0 {
		t.Fatal("seed-proc-calls.prog is missing or declares no procedures")
	}
	live := func(*ir.Var) bool { return true }
	if got := testing.AllocsPerRun(100, func() { ir.Canonical(p) }); got != 1 {
		t.Errorf("Canonical allocated %.0f times, want 1", got)
	}
	got := testing.AllocsPerRun(100, func() {
		for _, r := range p.Regions {
			ir.RegionFingerprintOf(p, r, live)
		}
	})
	if got != 0 {
		t.Errorf("RegionFingerprintOf allocated %.0f times per program, want 0", got)
	}
}
