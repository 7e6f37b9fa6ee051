package experiments

import (
	"testing"

	"refidem/internal/engine"
	"refidem/internal/idem"
	"refidem/internal/workloads"
)

// sweepCfg is a small machine so sweep tests stay fast.
func sweepCfg() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Processors = 2
	return cfg
}

// assertLabeledOnce runs a sweep of n points over one program and asserts
// the labeling pipeline ran exactly once, with every other point served
// from the fingerprint cache.
func assertLabeledOnce(t *testing.T, name string, n int, sweep func() error) {
	t.Helper()
	ResetLabelCache()
	if err := sweep(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	hits, misses := LabelCacheStats()
	if misses != 1 {
		t.Errorf("%s: labeling computed %d times, want exactly 1", name, misses)
	}
	if hits != int64(n-1) {
		t.Errorf("%s: cache hits = %d, want %d (one per remaining sweep point)", name, hits, n-1)
	}
}

func TestAblationCapacityLabelsOnce(t *testing.T) {
	spec, ok := workloads.FindLoop("TOMCATV", "MAIN_DO80")
	if !ok {
		t.Fatal("TOMCATV MAIN_DO80 not found")
	}
	caps := []int{8, 32, 128, 512}
	assertLabeledOnce(t, "AblationCapacity", len(caps), func() error {
		_, err := AblationCapacity(spec, caps, sweepCfg(), 0)
		return err
	})
}

func TestAblationProcessorsLabelsOnce(t *testing.T) {
	spec, ok := workloads.FindLoop("MGRID", "RESID_DO600")
	if !ok {
		t.Fatal("MGRID RESID_DO600 not found")
	}
	procs := []int{1, 2, 4}
	assertLabeledOnce(t, "AblationProcessors", len(procs), func() error {
		_, err := AblationProcessors(spec, procs, sweepCfg(), 0)
		return err
	})
}

func TestAblationAssociativityLabelsOnce(t *testing.T) {
	spec, ok := workloads.FindLoop("TOMCATV", "MAIN_DO80")
	if !ok {
		t.Fatal("TOMCATV MAIN_DO80 not found")
	}
	// AblationAssociativity sweeps its five built-in organizations.
	assertLabeledOnce(t, "AblationAssociativity", 5, func() error {
		_, err := AblationAssociativity(spec, sweepCfg(), 0)
		return err
	})
}

// TestCacheSharedAcrossWorkers runs a sweep with maximum fan-out and
// asserts the workers still share one labeling computation.
func TestCacheSharedAcrossWorkers(t *testing.T) {
	spec, ok := workloads.FindLoop("TOMCATV", "MAIN_DO80")
	if !ok {
		t.Fatal("TOMCATV MAIN_DO80 not found")
	}
	ResetLabelCache()
	caps := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	if _, err := AblationCapacity(spec, caps, sweepCfg(), len(caps)); err != nil {
		t.Fatal(err)
	}
	_, misses := LabelCacheStats()
	if misses != 1 {
		t.Errorf("parallel sweep computed the labeling %d times, want exactly 1", misses)
	}
}

// TestLabelMemoHitReturnsCanonical: a structurally identical program hits
// and gets the first program back with its shared labeling.
func TestLabelMemoHitReturnsCanonical(t *testing.T) {
	spec, ok := workloads.FindLoop("TOMCATV", "MAIN_DO80")
	if !ok {
		t.Fatal("TOMCATV MAIN_DO80 not found")
	}
	ResetLabelCache()
	p1, labs1, err := labelCache.labeled(spec.Program())
	if err != nil {
		t.Fatal(err)
	}
	p2, labs2, err := labelCache.labeled(spec.Program())
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("hit did not return the canonical program")
	}
	for _, r := range p2.Regions {
		if labs2[r] != labs1[r] {
			t.Errorf("region %s: hit did not share the labeling", r.Name)
		}
	}
	if hits, misses := LabelCacheStats(); hits != 1 || misses != 1 {
		t.Errorf("stats = (%d hits, %d misses), want (1, 1)", hits, misses)
	}
}

// TestLabelMemoLabelsMatchDirectPipeline: every label the memo serves
// equals the one the direct pipeline computes for the same program.
func TestLabelMemoLabelsMatchDirectPipeline(t *testing.T) {
	spec, ok := workloads.FindLoop("TOMCATV", "MAIN_DO80")
	if !ok {
		t.Fatal("TOMCATV MAIN_DO80 not found")
	}
	ResetLabelCache()
	p, labs, err := labelCache.labeled(spec.Program())
	if err != nil {
		t.Fatal(err)
	}
	dp := spec.Program()
	direct := idem.LabelProgram(dp)
	for i, r := range p.Regions {
		dr := dp.Regions[i]
		for j, ref := range r.Refs {
			if got, want := labs[r].Label(ref), direct[dr].Label(dr.Refs[j]); got != want {
				t.Errorf("region %s ref %d: memoized label %v, direct label %v", r.Name, j, got, want)
			}
		}
	}
}

// TestLabelMemoReportsValidationErrors: an invalid program fails with an
// error and is not memoized, so its repeat misses again.
func TestLabelMemoReportsValidationErrors(t *testing.T) {
	spec, ok := workloads.FindLoop("TOMCATV", "MAIN_DO80")
	if !ok {
		t.Fatal("TOMCATV MAIN_DO80 not found")
	}
	ResetLabelCache()
	for i := 0; i < 2; i++ {
		p := spec.Program()
		p.Regions[0].Step = 0 // invalid: zero step
		if _, _, err := labelCache.labeled(p); err == nil {
			t.Fatal("invalid program labeled without error")
		}
	}
	if hits, misses := LabelCacheStats(); hits != 0 || misses != 2 {
		t.Errorf("stats = (%d hits, %d misses), want (0, 2)", hits, misses)
	}
}
