package service

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"refidem/internal/gen"
	"refidem/internal/lang"
)

// benchSources returns n distinct generated program sources: the request
// mix a serving benchmark rotates through. Deterministic per (seed, n).
func benchSources(n int) []string {
	profiles := gen.Profiles()
	out := make([]string, n)
	for i := range out {
		sc := gen.FromProfile(profiles[i%len(profiles)], int64(1000+i))
		out[i] = sc.Program.Format()
	}
	return out
}

// BenchmarkServiceLabelThroughput measures end-to-end label request
// throughput under full parallelism — parse, fingerprint, queue, region
// analysis, fragment assembly — over a rotation of 8 distinct programs,
// with the coalescing/batching queue on and off. ns/op is the
// per-request wall cost at saturation; the CI gate holds both modes.
func BenchmarkServiceLabelThroughput(b *testing.B) {
	for _, coalesce := range []bool{true, false} {
		b.Run(fmt.Sprintf("coalesce=%v", coalesce), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Coalesce = coalesce
			cfg.QueueDepth = 1 << 16
			cfg.ResponseCache = -1 // measure the queue path, not byte replay
			s := New(cfg)
			defer s.Close()
			srcs := benchSources(8)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					req := Request{Program: srcs[i%len(srcs)]}
					i++
					for {
						_, err := s.Label(ctx, req)
						if err == nil {
							break
						}
						if errors.Is(err, ErrOverloaded) {
							continue // backpressure working as intended: retry
						}
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			snap := s.Metrics().SnapshotNow()
			if snap.LabelRequests > 0 {
				b.ReportMetric(float64(snap.Coalesced)/float64(snap.LabelRequests), "coalesced/req")
			}
		})
	}
}

// BenchmarkServiceLabelSerial measures the single-caller steady state —
// every request after the first is answered from the response byte cache
// (hash the request, one LRU lookup, return the shared bytes) — with
// deterministic allocation counts, so the gate's allocs/op check applies
// cleanly.
func BenchmarkServiceLabelSerial(b *testing.B) {
	s := New(DefaultConfig())
	defer s.Close()
	src := benchSources(1)[0]
	ctx := context.Background()
	if _, err := s.Label(ctx, Request{Program: src}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Label(ctx, Request{Program: src}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if snap := s.Metrics().SnapshotNow(); snap.Computed != 1 {
		b.Fatalf("computed = %d, want 1 (steady state must be pure response hits)", snap.Computed)
	}
}

// BenchmarkServiceLabelTracedOff is BenchmarkServiceLabelSerial with the
// default (disabled) flight recorder made explicit: its alloc gate proves
// the recorder's off-path adds zero allocations to the response-cache hot
// path — DoTraced with a nil recorder must cost one pointer check.
func BenchmarkServiceLabelTracedOff(b *testing.B) {
	cfg := DefaultConfig()
	cfg.FlightSpans = 0
	s := New(cfg)
	defer s.Close()
	src := benchSources(1)[0]
	ctx := context.Background()
	if _, err := s.Label(ctx, Request{Program: src}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.DoTraced(ctx, Request{Op: OpLabel, Program: src}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if snap := s.Metrics().SnapshotNow(); snap.Computed != 1 {
		b.Fatalf("computed = %d, want 1 (steady state must be pure response hits)", snap.Computed)
	}
}

// BenchmarkServiceSimulateThroughput measures simulate request throughput
// (label + three engine runs + live-out verification per distinct
// program; coalescing collapses concurrent duplicates).
func BenchmarkServiceSimulateThroughput(b *testing.B) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 1 << 16
	cfg.ResponseCache = -1
	s := New(cfg)
	defer s.Close()
	srcs := benchSources(4)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			req := Request{Program: srcs[i%len(srcs)]}
			i++
			for {
				_, err := s.Simulate(ctx, req)
				if err == nil {
					break
				}
				if errors.Is(err, ErrOverloaded) {
					continue
				}
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServiceLabelDelta measures the steady-state delta path with
// the response byte cache off: resolve the base from the registry, apply
// the patch, parse and analyze the composed program, and serve every
// region from the fragment cache (the warm-up request re-labeled the
// patched region; iterations reuse it). This is the cost a client pays
// for an incremental edit versus BenchmarkServiceLabelThroughput's full
// pipeline. Single caller, so the allocs gate is exact.
func BenchmarkServiceLabelDelta(b *testing.B) {
	cfg := DefaultConfig()
	cfg.ResponseCache = -1 // measure the delta path, not byte replay
	s := New(cfg)
	defer s.Close()
	ctx := context.Background()

	src := benchSources(1)[0]
	p, err := lang.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Label(ctx, Request{Program: src}); err != nil {
		b.Fatal(err)
	}
	req := Request{Base: fpHexOf(b, src), Patches: []RegionPatch{mutateFirstRegion(b, src, p)}}
	if _, err := s.Label(ctx, req); err != nil {
		b.Fatal(err) // warm-up: re-labels the patched region once
	}
	relabeledWarm := s.Metrics().SnapshotNow().RegionsRelabeled

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Label(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if snap := s.Metrics().SnapshotNow(); snap.RegionsRelabeled != relabeledWarm {
		b.Fatalf("relabeled grew %d -> %d: steady state must be pure fragment reuse",
			relabeledWarm, snap.RegionsRelabeled)
	}
}
