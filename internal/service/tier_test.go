package service

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"refidem/internal/api"
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
// once generated programs are simulated twice, which promotes each into
// the tier, no entry's labelings carry a dependence analysis, an RFW
// result or a segment graph. A later simulate
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
	simulateTwice(t, s, srcs)
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

// simulateTwice simulates each source twice on s; the second simulate
// promotes the program into the program tier and gives its text an alias.
func simulateTwice(t *testing.T, s *Server, srcs []string) {
	t.Helper()
	for _, src := range srcs {
		for range 2 {
			if _, err := s.Simulate(context.Background(), Request{Program: src}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The heap a program-tier entry retains stays bounded: with the
// response, fragment and base caches off, it is the live heap that
// removing the entries of n promoted generated programs frees, aliases
// included. The test keeps each program reachable meanwhile, so neither
// the parses nor the compiled code on their regions are counted.
// Measured on linux/amd64 with Go 1.24: 18.5 KB per entry while entries
// kept their labelings' dependence, RFW and segment-graph artifacts,
// 3.5–4.1 KB since they are released. The bound sits between the two.
func TestProgramTierEntryHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	const n = 64
	const maxPerEntry = 10 << 10
	cfg := testConfig()
	cfg.CacheCapacity = 2 * n
	cfg.ResponseCache, cfg.DeltaFragments, cfg.DeltaBases = -1, -1, -1
	srcs, progs := tierPrograms(t, n)
	keys := make([][2]progKey, n)
	for i, p := range progs {
		alias := api.KeyOf(Request{Op: OpSimulate, Program: srcs[i]}).Selector()
		keys[i] = [2]progKey{{sum: ir.FingerprintOf(p)}, {sum: alias, alias: true}}
	}
	s := New(cfg)
	defer s.Close()
	simulateTwice(t, s, srcs)
	held := make([]*ir.Program, n)
	for i, k := range keys {
		e, ok := s.programs.Get(k[0])
		if !ok {
			t.Fatalf("program %d: not in the program tier", i)
		}
		held[i] = e.prog
	}
	before := liveHeap()
	for i, k := range keys {
		for _, key := range k {
			if !s.programs.Remove(key) {
				t.Fatalf("program %d: no tier entry under %+v", i, key)
			}
		}
	}
	perEntry := (int64(before) - int64(liveHeap())) / n
	runtime.KeepAlive(held)
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

// Programs simulated once never reach the program tier: with the
// response, fragment and base caches off, the heap retained after n
// distinct generated programs, each simulated once, stays bounded by the
// probation list's size as n grows past it. From 2 to 8 probation-fulls
// of programs it grows by less than half of what the first two added.
func TestProgramsSimulatedOnceStayInProbation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	cfg := testConfig()
	cfg.CacheCapacity = 128
	cfg.ResponseCache, cfg.DeltaFragments, cfg.DeltaBases = -1, -1, -1
	s := New(cfg)
	defer s.Close()
	probation := max(16, cfg.CacheCapacity/8)
	srcs := benchSources(8 * probation)
	simulate := func(srcs []string) {
		for _, src := range srcs {
			if _, err := s.Simulate(context.Background(), Request{Program: src}); err != nil {
				t.Fatal(err)
			}
		}
	}
	h0 := liveHeap()
	simulate(srcs[:2*probation])
	h1 := liveHeap()
	simulate(srcs[2*probation:])
	h2 := liveHeap()
	first, later := int64(h1)-int64(h0), int64(h2)-int64(h1)
	t.Logf("%d programs retained %d bytes, %d more programs %d bytes", 2*probation, first, 6*probation, later)
	if later > first/2 {
		t.Errorf("%d more programs simulated once grew the retained heap by %d bytes, want under half of the %d the first %d added",
			6*probation, later, first, 2*probation)
	}
	if cs := s.CacheStats(); cs.Entries != 0 || cs.Misses != int64(len(srcs)) {
		t.Errorf("program tier: %d entries, %d misses; want 0 and %d", cs.Entries, cs.Misses, len(srcs))
	}
}

// Concurrent first and second simulates of one program on different
// machines, mixed with first simulates of other programs, leave exactly
// that program in the tier under one fingerprint entry and its text's
// alias, with one sequential run, while the others stay in probation.
// Every answer equals a fresh server's. The second simulates start once
// the program's first answer is out, so they find it labeled.
func TestConcurrentSimulatesPromoteOneEntry(t *testing.T) {
	cfg := testConfig()
	cfg.CacheCapacity = 64
	cfg.ResponseCache = -1
	s := New(cfg)
	defer s.Close()
	const firsts, seconds = 4, 4
	srcX, pX := paperLoop(t, 0)
	reqs := make([]Request, 0, firsts+seconds)
	for procs := 1; procs <= firsts+seconds; procs++ {
		reqs = append(reqs, Request{Program: srcX, Procs: procs})
	}
	var others []*ir.Program
	for i := 1; i <= 6; i++ {
		src, p := paperLoop(t, i)
		reqs = append(reqs, Request{Program: src, Procs: i})
		others = append(others, p)
	}
	got := make([][]byte, len(reqs))
	answered := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i >= firsts && i < firsts+seconds {
				<-answered
			}
			var err error
			if got[i], err = s.Simulate(context.Background(), req); err != nil {
				t.Error(err)
			}
			if i < firsts {
				once.Do(func() { close(answered) })
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, req := range reqs {
		if want := freshSimulate(t, req); !bytes.Equal(got[i], want) {
			t.Errorf("request %d: simulate differs from a fresh server's:\n%s\nwant\n%s", i, got[i], want)
		}
	}
	if _, ok := s.programs.Get(progKey{sum: ir.FingerprintOf(pX)}); !ok {
		t.Error("the program simulated twice is not in the program tier")
	}
	for i, p := range others {
		if _, ok := s.programs.Get(progKey{sum: ir.FingerprintOf(p)}); ok {
			t.Errorf("program %d, simulated once, is in the program tier", i+1)
		}
	}
	cs := s.CacheStats()
	if cs.Entries != 2 || cs.Promotions != 1 {
		t.Errorf("program tier: %d entries, %d promotions; want 2 (one program, one alias) and 1", cs.Entries, cs.Promotions)
	}
	// Every request runs both speculative models on its own machine; the
	// sequential run is one per program.
	n := int64(len(reqs))
	want := 2*n + 1 + int64(len(others))
	if snap := s.Metrics().SnapshotNow(); snap.SimRowsComputed != want || snap.SimRowsReused != firsts+seconds-1 {
		t.Errorf("rows computed %d, reused %d; want %d and %d (one sequential run per program)",
			snap.SimRowsComputed, snap.SimRowsReused, want, firsts+seconds-1)
	}
}

// freshSimulate is the simulate body a server that never saw the
// request's program answers.
func freshSimulate(t *testing.T, req Request) []byte {
	t.Helper()
	s := New(testConfig())
	defer s.Close()
	resp, err := s.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
