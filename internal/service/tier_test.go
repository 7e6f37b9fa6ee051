package service

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"refidem/internal/ir"
	"refidem/internal/lang"
)

// tierPrograms returns the sources and parses of n distinct generated
// programs, the benchmark rotation's (benchSources).
func tierPrograms(t *testing.T, n int) ([]string, []*ir.Program) {
	t.Helper()
	srcs := benchSources(n)
	progs := make([]*ir.Program, n)
	for i, src := range srcs {
		p, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = p
	}
	return srcs, progs
}

// A program-tier entry keeps only the engine's view of its labeling:
// once generated programs are simulated, no entry's labelings carry a
// dependence analysis, an RFW result or a segment graph. A later simulate
// and timeline on a machine no entry has run, so the engine runs on the
// released labelings, are byte-identical to a fresh server's, and the
// simulate to fresh runs on the full labeling.
func TestProgramTierKeepsEngineView(t *testing.T) {
	cfg := testConfig()
	cfg.CacheCapacity = 64
	cfg.ResponseCache = -1
	s := New(cfg)
	defer s.Close()
	srcs, progs := tierPrograms(t, 12)
	ctx := context.Background()
	for _, src := range srcs {
		if _, err := s.Simulate(ctx, Request{Program: src}); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range progs {
		e, ok := s.programs.Get(progKey{sum: ir.FingerprintOf(p)})
		if !ok {
			t.Fatalf("program %d: not in the program tier", i)
		}
		if len(e.labs) != len(p.Regions) {
			t.Fatalf("program %d: %d labelings for %d regions", i, len(e.labs), len(p.Regions))
		}
		for r, res := range e.labs {
			if res.Deps != nil || res.RFW != nil || res.Graph != nil {
				t.Errorf("program %d region %s keeps deps %v, rfw %v, graph %v",
					i, r.Name, res.Deps != nil, res.RFW != nil, res.Graph != nil)
			}
		}
	}
	const procs, capacity = 3, 5
	fresh := New(cfg)
	defer fresh.Close()
	for i, src := range srcs {
		req := Request{Program: src, Procs: procs, Capacity: capacity}
		got, err := s.Simulate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Simulate(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("program %d: simulate differs from a fresh server's:\n%s\nwant\n%s", i, got, want)
		}
		if oracle := oracleOf(t, progs[i], procs, capacity); !bytes.Equal(got, oracle) {
			t.Errorf("program %d: simulate differs from fresh runs:\n%s\nwant\n%s", i, got, oracle)
		}
		var tl bytes.Buffer
		if err := s.SimulateTimeline(ctx, req, &tl); err != nil {
			t.Fatal(err)
		}
		if want := freshTimeline(t, req); !bytes.Equal(tl.Bytes(), want) {
			t.Errorf("program %d: timeline differs from a fresh server's", i)
		}
	}
}

// The heap a program-tier entry retains stays bounded: with the
// response, fragment and base caches off, it is the live heap that
// removing the entries of n simulated generated programs frees. The
// engine's process-wide cache of compiled regions also holds each
// region, so neither it nor the regions are counted. Measured on
// linux/amd64 with Go 1.24: 18.5 KB per entry while entries kept their
// labelings' dependence, RFW and segment-graph artifacts, 4.1 KB since
// they are released. The bound sits between the two.
func TestProgramTierEntryHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const n = 64
	const maxPerEntry = 10 << 10
	cfg := testConfig()
	cfg.CacheCapacity = n
	cfg.ResponseCache, cfg.DeltaFragments, cfg.DeltaBases = -1, -1, -1
	srcs, progs := tierPrograms(t, n)
	keys := make([]progKey, n)
	for i, p := range progs {
		keys[i] = progKey{sum: ir.FingerprintOf(p)}
	}
	s := New(cfg)
	defer s.Close()
	ctx := context.Background()
	for _, src := range srcs {
		if _, err := s.Simulate(ctx, Request{Program: src}); err != nil {
			t.Fatal(err)
		}
	}
	held := liveHeap()
	for i, k := range keys {
		if !s.programs.Remove(k) {
			t.Fatalf("program %d: not in the program tier", i)
		}
	}
	perEntry := (int64(held) - int64(liveHeap())) / n
	t.Logf("%d bytes of heap per program-tier entry", perEntry)
	if perEntry > maxPerEntry {
		t.Errorf("a program-tier entry retains %d bytes of heap, want at most %d", perEntry, maxPerEntry)
	}
}

// liveHeap returns the bytes of live heap objects once two collections
// have emptied the sync.Pools.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
