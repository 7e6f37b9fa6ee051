package service

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"refidem/internal/deps"
)

// TestEnsembleResponsesByteIdentical pins the serving-layer contract of
// the dependence ensemble: with Config.Ensemble on, every response
// document is byte-identical to the plain labeler's — the sound members
// cannot move labels, and the speculative members are not enabled by the
// server — while /metricz gains live per-member counters.
func TestEnsembleResponsesByteIdentical(t *testing.T) {
	plain := New(testConfig())
	defer plain.Close()
	ecfg := testConfig()
	ecfg.Ensemble = true
	ens := New(ecfg)
	defer ens.Close()

	before := deps.MemberStatsNow()
	reqs := []Request{
		{Example: "fig2", Deps: true},
		{Example: "buts"},
		{Program: testProgramSrc, Deps: true},
	}
	ctx := context.Background()
	for i, req := range reqs {
		want, err := plain.Label(ctx, req)
		if err != nil {
			t.Fatalf("plain label %d: %v", i, err)
		}
		got, err := ens.Label(ctx, req)
		if err != nil {
			t.Fatalf("ensemble label %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("label request %d: ensemble response diverged\nplain:    %s\nensemble: %s", i, want, got)
		}
	}
	for i, req := range []Request{{Example: "fig2"}, {Example: "buts", Procs: 2}} {
		want, err := plain.Simulate(ctx, req)
		if err != nil {
			t.Fatalf("plain simulate %d: %v", i, err)
		}
		got, err := ens.Simulate(ctx, req)
		if err != nil {
			t.Fatalf("ensemble simulate %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("simulate request %d: ensemble response diverged", i)
		}
	}

	after := deps.MemberStatsNow()
	if after.Queries[deps.MemberRange] <= before.Queries[deps.MemberRange] {
		t.Error("ensemble labeling did not consult the range member")
	}
	if after.Queries[deps.MemberExact] <= before.Queries[deps.MemberExact] {
		t.Error("ensemble labeling did not consult the exact member")
	}

	out := ens.RenderMetricz()
	for _, name := range deps.MemberNames() {
		for _, suffix := range []string{"_queries", "_hits", "_short_circuits"} {
			if !strings.Contains(out, "deps_member_"+name+suffix+" ") {
				t.Errorf("metricz missing deps_member_%s%s line:\n%s", name, suffix, out)
			}
		}
	}
}

// TestEnsembleLabelsDeltaRegions: Config.Ensemble selects the labeler of
// every path, so the regions a delta re-labels consult the ensemble too.
func TestEnsembleLabelsDeltaRegions(t *testing.T) {
	cfg := testConfig()
	cfg.Ensemble = true
	s := New(cfg)
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Label(ctx, Request{Program: deltaBaseSrc}); err != nil {
		t.Fatal(err)
	}
	before := deps.MemberStatsNow().Queries[deps.MemberRange]
	delta := Request{Base: fpHexOf(t, deltaBaseSrc), Patches: []RegionPatch{{Region: "r1", Source: deltaPatchR1}}}
	if _, err := s.Label(ctx, delta); err != nil {
		t.Fatal(err)
	}
	if s.Metrics().SnapshotNow().RegionsRelabeled == 0 {
		t.Fatal("the delta re-labeled no region")
	}
	if after := deps.MemberStatsNow().Queries[deps.MemberRange]; after <= before {
		t.Errorf("deps_member_range_queries stayed at %d across a delta label", after)
	}
}
