package fuzz

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"refidem/internal/gen"
	"refidem/internal/ir"
	"refidem/internal/lang"
)

// TestRunCleanOnMain: the oracle wall finds nothing on a healthy tree,
// across every profile.
func TestRunCleanOnMain(t *testing.T) {
	sum, err := Run(Options{Seed: 1, N: 120, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failures) != 0 {
		t.Fatalf("clean tree produced failures:\n%s", sum.Format())
	}
	if sum.Checked != 120 {
		t.Fatalf("checked %d != 120", sum.Checked)
	}
	// The rotation must actually reach every profile.
	if len(sum.ByProfile) != len(gen.Profiles()) {
		t.Errorf("only %d profiles reached: %v", len(sum.ByProfile), sum.ByProfile)
	}
}

// TestRunDeterministic: the summary is byte-identical run over run and
// independent of the shard count.
func TestRunDeterministic(t *testing.T) {
	var outs []string
	for _, shards := range []int{1, 5, 5} {
		sum, err := Run(Options{Seed: 7, N: 48, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, sum.Format())
	}
	if outs[0] != outs[1] || outs[1] != outs[2] {
		t.Fatalf("summaries differ across shard counts/runs:\n--- shards=1\n%s\n--- shards=5\n%s", outs[0], outs[1])
	}
}

// TestBrokenLabelingCaughtAndShrunk: deliberately forcing one
// non-idempotent reference idempotent must be caught by the wall, and
// the shrinker must reduce some failure to a <=3-statement reproducer.
func TestBrokenLabelingCaughtAndShrunk(t *testing.T) {
	sum, err := Run(Options{Seed: 1, N: 40, Shards: 4, BreakLabeling: true, ShrinkLimit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failures) == 0 {
		t.Fatal("broken labeling went unnoticed by the oracle wall")
	}
	best := -1
	for _, f := range sum.Failures {
		if best == -1 || f.ReducedStmts < best {
			best = f.ReducedStmts
		}
	}
	if best > 3 {
		t.Fatalf("smallest reproducer has %d statements (> 3):\n%s", best, sum.Format())
	}
	// Every reduced reproducer must still be a parseable program.
	for _, f := range sum.Failures {
		if _, err := lang.Parse(f.Reduced); err != nil {
			t.Fatalf("reduced program does not parse: %v\n%s", err, f.Reduced)
		}
	}
}

// TestBrokenEnsembleCaughtAndShrunk: the stage-8 self-test. Annotating
// real cross dependences "never aliases" must be caught by the threshold
// live-out oracle with the ensemble kind, and the failures must shrink.
func TestBrokenEnsembleCaughtAndShrunk(t *testing.T) {
	sum, err := Run(Options{Seed: 1, N: 30, Shards: 4, BreakEnsemble: true, ShrinkLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failures) == 0 {
		t.Fatal("broken dependence speculation went unnoticed by the oracle wall")
	}
	best := -1
	for _, f := range sum.Failures {
		if f.Kind != KindEnsemble {
			t.Errorf("failure %d has kind %s, want %s", f.Index, f.Kind, KindEnsemble)
		}
		if best == -1 || f.ReducedStmts < best {
			best = f.ReducedStmts
		}
		if _, err := lang.Parse(f.Reduced); err != nil {
			t.Fatalf("reduced program does not parse: %v\n%s", err, f.Reduced)
		}
	}
	if best > 6 {
		t.Fatalf("smallest reproducer has %d statements (> 6):\n%s", best, sum.Format())
	}
}

// TestShrinkPreservesFailureKind: the shrinker's output still fails with
// the kind it was shrunk for.
func TestShrinkPreservesFailureKind(t *testing.T) {
	opts := OracleOptions{BreakLabeling: true}
	prof, err := gen.ProfileByName("default")
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for seed := int64(0); seed < 30 && done < 5; seed++ {
		sc := gen.FromProfile(prof, seed)
		v := CheckProgram(sc.Program, opts)
		if v == nil {
			continue
		}
		done++
		red := Shrink(sc.Program, func(c *ir.Program) bool {
			cv := CheckProgram(c, opts)
			return cv != nil && cv.Kind == v.Kind
		}, 4000)
		rv := CheckProgram(red, opts)
		if rv == nil || rv.Kind != v.Kind {
			t.Fatalf("seed %d: shrink lost the failure (%v -> %v)\n%s",
				seed, v, rv, red.Format())
		}
		if CountStmts(red) > CountStmts(sc.Program) {
			t.Fatalf("seed %d: shrink grew the program", seed)
		}
	}
	if done == 0 {
		t.Fatal("no fault-injected failures found to shrink")
	}
}

// TestCorpusRoundTrip: reproducers written by a run load back, parse and
// carry their metadata.
func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sum, err := Run(Options{Seed: 3, N: 24, Shards: 2, BreakLabeling: true,
		ShrinkLimit: 2, CorpusDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failures) == 0 {
		t.Skip("no failures produced (unexpected but not this test's concern)")
	}
	corpus, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("no corpus files written")
	}
	for _, r := range corpus {
		if r.Kind == "" || r.Profile == "" {
			t.Errorf("%s: missing metadata: %+v", r.Path, r)
		}
		p, err := r.Program()
		if err != nil {
			t.Errorf("%s: %v", r.Path, err)
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: invalid program: %v", r.Path, err)
		}
	}
}

// TestReproducerHeaderStopsAtProgram: '#' comments inside the program
// body must not rewrite the metadata header.
func TestReproducerHeaderStopsAtProgram(t *testing.T) {
	dir := t.TempDir()
	src := `program demo
var a[8]
# seed: 999
# kind: bogus
region r0 loop k = 0 to 3 {
  liveout a
  a[k] = k
}
`
	path := filepath.Join(dir, "seed-demo.prog")
	content := "# refidem fuzz reproducer\n# seed: 7\n# profile: seed-corpus\n# kind: seed\n# detail: header-stop regression\n# stmts: 1\n" + src
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := ReadReproducer(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seed != 7 || r.Kind != "seed" {
		t.Fatalf("body comments rewrote the header: %+v", r)
	}
}

// TestSummaryFormatStable: pin a fragment of the summary format so the
// nightly logs stay greppable.
func TestSummaryFormatStable(t *testing.T) {
	sum, err := Run(Options{Seed: 2, N: 12, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	text := sum.Format()
	for _, want := range []string{
		"fuzz: seed=2 n=12 profile=all\n",
		"checked 12 programs, 0 failures\n",
		"sequence digest ",
		"programs per profile:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q:\n%s", want, text)
		}
	}
}

// TestRunCtxCancelled verifies a cancelled sweep reports the ctx error
// instead of a (nondeterministic) partial summary.
func TestRunCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCtx(ctx, Options{Seed: 1, N: 50, Shards: 2}); err == nil {
		t.Error("expected an error from a pre-cancelled sweep")
	}
}

// TestRunCtxBackground matches Run: a background ctx changes nothing.
func TestRunCtxBackground(t *testing.T) {
	a, err := Run(Options{Seed: 7, N: 24, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCtx(context.Background(), Options{Seed: 7, N: 24, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Error("digest differs between Run and RunCtx across shard counts")
	}
}
