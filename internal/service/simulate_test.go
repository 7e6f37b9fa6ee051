package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"refidem/internal/api"
	"refidem/internal/engine"
	"refidem/internal/idem"
	"refidem/internal/ir"
	"refidem/internal/lang"
	"refidem/internal/workloads"
)

// simulateOracle renders a simulate response from fresh engine runs on
// cfg: the sequential run, both speculative runs and their live-out
// checks, with nothing reused. It is the server's simulate path before
// it kept any run, and every simulate body must byte-equal it.
func simulateOracle(fp ir.Fingerprint, p *ir.Program, labs map[*ir.Region]*idem.Result, cfg engine.Config) ([]byte, error) {
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
	for _, r := range []*engine.Result{hose, caseR} {
		if err := engine.LiveOutMismatch(p, labs, seq, r); err != nil {
			return nil, fmt.Errorf("%v run produced wrong results: %v", r.Mode, err)
		}
	}
	doc := SimulateResponse{
		Op:           OpSimulate,
		Program:      p.Name,
		Fingerprint:  hex.EncodeToString(fp[:]),
		Processors:   cfg.Processors,
		SpecCapacity: cfg.SpecCapacity,
		Verified:     true,
	}
	for _, r := range []*engine.Result{seq, hose, caseR} {
		row := ModelRow{
			Mode:                r.Mode.String(),
			Cycles:              r.Cycles,
			Speedup:             float64(seq.Cycles) / float64(r.Cycles),
			DynRefs:             r.Stats.DynRefs,
			IdemRefs:            r.Stats.IdemRefs,
			Overflows:           r.Stats.Overflows,
			OverflowStallCycles: r.Stats.OverflowStallCycles,
			FlowViolations:      r.Stats.FlowViolations,
			ControlViolations:   r.Stats.ControlViolations,
			PeakSpecOccupancy:   r.Stats.PeakSpecOccupancy,
		}
		if r.Mode != engine.Sequential && r.Cycles > 0 {
			row.UtilizationPct = 100 * float64(r.Stats.BusyCycles) /
				float64(int64(cfg.Processors)*r.Cycles)
		}
		doc.Models = append(doc.Models, row)
	}
	return marshalResponse(doc)
}

// simCase is one simulate request with its oracle body, the index of its
// paper loop and the peak speculative occupancy of the loop's HOSE and
// CASE runs on the request's processor count.
type simCase struct {
	req   Request
	want  []byte
	loop  int
	peaks [2]int
}

// paperSimulateCases builds the capacity-reuse request set: every paper
// loop at 2, 4 and 8 processors, at capacities peak-1, peak and 4·peak of
// each speculative model plus 8191, with their oracle bodies. It also
// returns how many model rows a server must run when the requests arrive
// one at a time, in any order: each loop's sequential run once, and per
// (loop, processors, mode) one run at or above the peak — later ones are
// reused — plus every request below it.
func paperSimulateCases(t *testing.T) ([]simCase, int64) {
	t.Helper()
	var cases []simCase
	var computed int64
	for li, spec := range workloads.NamedLoops() {
		p, err := lang.Parse(spec.Src)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		fp := ir.FingerprintOf(p)
		labs := idem.LabelProgram(p)
		computed++ // the loop's sequential run
		for _, procs := range []int{2, 4, 8} {
			cfg := engine.DefaultConfig()
			cfg.Processors = procs
			cfg.SpecCapacity = 8191
			var peaks []int
			caps := []int{8191}
			for _, mode := range []engine.Mode{engine.HOSE, engine.CASE} {
				r, err := engine.RunSpeculative(p, labs, cfg, mode)
				if err != nil {
					t.Fatal(err)
				}
				if r.Stats.Overflows != 0 {
					t.Fatalf("%s %v %dp overflows at capacity 8191", spec, mode, procs)
				}
				peak := r.Stats.PeakSpecOccupancy
				peaks = append(peaks, peak)
				for _, c := range []int{peak - 1, peak, 4 * peak} {
					if c > 0 && !slices.Contains(caps, c) {
						caps = append(caps, c)
					}
				}
			}
			for _, peak := range peaks {
				computed++
				for _, c := range caps {
					if c < peak {
						computed++
					}
				}
			}
			for _, c := range caps {
				at := cfg
				at.SpecCapacity = c
				want, err := simulateOracle(fp, p, labs, at)
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, simCase{
					req:   Request{Op: OpSimulate, Program: spec.Src, Procs: procs, Capacity: c},
					want:  want,
					loop:  li,
					peaks: [2]int{peaks[0], peaks[1]},
				})
			}
		}
	}
	return cases, computed
}

// keptAnswers counts the requests of a serial order that a server answers
// from kept rows without admission: those arriving after their loop's
// sequential run, at a processor count that already keeps a saturated row
// of both modes whose peak their capacity reaches.
func keptAnswers(order []simCase) int64 {
	type cell struct{ loop, procs, mode int }
	seqDone := map[int]bool{}
	kept := map[cell]bool{}
	var n int64
	for _, c := range order {
		inline := seqDone[c.loop]
		for m, peak := range c.peaks {
			inline = inline && kept[cell{c.loop, c.req.Procs, m}] && c.req.Capacity >= peak
		}
		if inline {
			n++
		}
		seqDone[c.loop] = true
		for m, peak := range c.peaks {
			if c.req.Capacity >= peak {
				kept[cell{c.loop, c.req.Procs, m}] = true
			}
		}
	}
	return n
}

// TestSimulateReuseMatchesFreshRuns is the exactness contract of the
// simulate path: whatever order requests arrive in, every body
// byte-equals the oracle's fresh runs, so a kept sequential run or
// saturated row is only ever served where it is the run a fresh
// simulation would do — whether a worker renders it or the request
// goroutine answers from kept rows alone. Each order runs on a fresh
// server; the serial orders also pin every counter of the reuse.
func TestSimulateReuseMatchesFreshRuns(t *testing.T) {
	cases, wantComputed := paperSimulateCases(t)
	loops := int64(len(workloads.NamedLoops()))
	byCapacity := func(desc bool) []simCase {
		out := slices.Clone(cases)
		slices.SortStableFunc(out, func(a, b simCase) int {
			if desc {
				return b.req.Capacity - a.req.Capacity
			}
			return a.req.Capacity - b.req.Capacity
		})
		return out
	}
	check := func(t *testing.T, s *Server, c simCase) {
		got, err := s.Do(context.Background(), c.req)
		if err != nil {
			t.Errorf("procs %d capacity %d: %v", c.req.Procs, c.req.Capacity, err)
			return
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("procs %d capacity %d: body differs from fresh runs:\n%s\nwant\n%s",
				c.req.Procs, c.req.Capacity, got, c.want)
		}
	}
	rows := func(t *testing.T, s *Server) (computed, reused int64) {
		snap := s.Metrics().SnapshotNow()
		if total := int64(3 * len(cases)); snap.SimRowsComputed+snap.SimRowsReused != total {
			t.Errorf("rows computed %d + reused %d, want %d (three per request)",
				snap.SimRowsComputed, snap.SimRowsReused, total)
		}
		return snap.SimRowsComputed, snap.SimRowsReused
	}
	// The program tier must hold every loop and its alias, or evictions
	// drop kept rows.
	cfg := testConfig()
	cfg.CacheCapacity = 64
	cfg.QueueDepth = len(cases)
	for _, order := range []struct {
		name string
		desc bool
	}{{"ascending", false}, {"descending", true}} {
		t.Run(order.name, func(t *testing.T) {
			s := New(cfg)
			defer s.Close()
			reqs := byCapacity(order.desc)
			for _, c := range reqs {
				check(t, s, c)
			}
			if computed, reused := rows(t, s); computed != wantComputed {
				t.Errorf("%d rows computed and %d reused, want %d computed", computed, reused, wantComputed)
			}
			// Each loop's second request finds it by fingerprint and gives
			// the text an alias, every later one resolves by selector
			// digest; the kept-row answers never reach a worker.
			kept := keptAnswers(reqs)
			if kept == 0 || kept == int64(len(reqs)) {
				t.Fatalf("%d of %d requests answerable from kept rows: the order tests only one path", kept, len(reqs))
			}
			snap := s.Metrics().SnapshotNow()
			cs := s.CacheStats()
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				{"sim_source_hits", snap.SimSourceHits, int64(len(reqs)) - 2*loops},
				{"sim_answered_kept", snap.SimAnsweredKept, kept},
				{"tasks_computed", snap.Computed, int64(len(reqs)) - kept},
				{"cache_hits", cs.Hits, int64(len(reqs)) - loops},
				{"cache_misses", cs.Misses, loops},
				{"cache_entries", int64(cs.Entries), 2 * loops},
			} {
				if c.got != c.want {
					t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
				}
			}
		})
	}
	t.Run("concurrent", func(t *testing.T) {
		s := New(cfg)
		defer s.Close()
		var wg sync.WaitGroup
		for _, c := range cases {
			wg.Add(1)
			go func() {
				defer wg.Done()
				check(t, s, c)
			}()
		}
		wg.Wait()
		if _, reused := rows(t, s); reused == 0 {
			t.Error("no row reused")
		}
		snap := s.Metrics().SnapshotNow()
		if snap.Computed+snap.SimAnsweredKept+snap.Coalesced != int64(len(cases)) {
			t.Errorf("computed %d + answered from kept rows %d + coalesced %d, want %d requests",
				snap.Computed, snap.SimAnsweredKept, snap.Coalesced, len(cases))
		}
	})
}

// TestConcurrentFirstSimulatesRunSequentialOnce: simulates of one new
// program on different machines, submitted together, share one program
// entry and so one sequential run. Every processor count is distinct, so
// each request runs both speculative models itself and the row counters
// tell the sequential runs apart.
func TestConcurrentFirstSimulatesRunSequentialOnce(t *testing.T) {
	s := New(DefaultConfig())
	defer s.Close()
	spec, _ := workloads.FindLoop("TOMCATV", "MAIN_DO80")
	const n = 8
	var wg sync.WaitGroup
	for procs := 1; procs <= n; procs++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Simulate(context.Background(), Request{Program: spec.Src, Procs: procs}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	snap := s.Metrics().SnapshotNow()
	if snap.SimRowsComputed != 1+2*n || snap.SimRowsReused != n-1 {
		t.Errorf("rows computed %d, reused %d; want %d and %d (one sequential run)",
			snap.SimRowsComputed, snap.SimRowsReused, 1+2*n, n-1)
	}
}

// TestSimulateHugeCapacity: speculative storage is sized by occupancy, so
// a capacity of 2^30 entries simulates like any other and verifies.
func TestSimulateHugeCapacity(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	raw, err := s.Simulate(context.Background(), Request{Example: "fig2", Capacity: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	var doc SimulateResponse
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Verified || doc.SpecCapacity != 1<<30 || len(doc.Models) != 3 {
		t.Errorf("verified %v, capacity %d, %d models; want a verified 3-model answer at 2^30",
			doc.Verified, doc.SpecCapacity, len(doc.Models))
	}
}

// TestProcsBound: a processor count above api.MaxProcs is a bad request
// on both simulate paths, and the bound itself is accepted.
func TestProcsBound(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ctx := context.Background()
	over := Request{Op: OpSimulate, Example: "fig2", Procs: api.MaxProcs + 1}
	if _, err := s.Do(ctx, over); !errors.Is(err, ErrBadRequest) {
		t.Errorf("Do with procs %d: err = %v, want ErrBadRequest", over.Procs, err)
	}
	if err := s.SimulateTimeline(ctx, over, io.Discard); !errors.Is(err, ErrBadRequest) {
		t.Errorf("SimulateTimeline with procs %d: err = %v, want ErrBadRequest", over.Procs, err)
	}
	if _, err := s.Do(ctx, Request{Op: OpSimulate, Example: "fig2", Procs: api.MaxProcs}); err != nil {
		t.Errorf("Do with procs %d: %v", api.MaxProcs, err)
	}
}

// oracleOf is simulateOracle's body for p on the default machine with a
// request's processor and capacity overrides (0 keeps the default).
func oracleOf(t *testing.T, p *ir.Program, procs, capacity int) []byte {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	if procs > 0 {
		cfg.Processors = procs
	}
	if capacity > 0 {
		cfg.SpecCapacity = capacity
	}
	want, err := simulateOracle(ir.FingerprintOf(p), p, idem.LabelProgram(p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// paperLoop returns paper loop i's source and program.
func paperLoop(t *testing.T, i int) (string, *ir.Program) {
	t.Helper()
	src := workloads.NamedLoops()[i].Src
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return src, p
}

// whitespaceVariant returns src with one blank line added: another text
// of the same program.
func whitespaceVariant(t *testing.T, src string) string {
	t.Helper()
	v := strings.Replace(src, "\n", "\n\n", 1)
	p, err := lang.Parse(v)
	if err != nil || v == src {
		t.Fatalf("variant does not parse or equals the source: %v", err)
	}
	if q, _ := lang.Parse(src); ir.FingerprintOf(p) != ir.FingerprintOf(q) {
		t.Fatal("variant is another program")
	}
	return v
}

// Large capacities at which every paper loop's runs are saturated, so
// once both rows are kept a simulate is answered from them.
const (
	capA = 1 << 20
	capB = 1 << 21
	capC = 1 << 22
)

// simCounters is the part of the state a simulate resolution moves.
type simCounters struct{ sourceHits, hits, misses, kept int64 }

func simCountersOf(s *Server) simCounters {
	snap, cs := s.Metrics().SnapshotNow(), s.CacheStats()
	return simCounters{snap.SimSourceHits, cs.Hits, cs.Misses, snap.SimAnsweredKept}
}

func (a simCounters) minus(b simCounters) simCounters {
	return simCounters{a.sourceHits - b.sourceHits, a.hits - b.hits, a.misses - b.misses, a.kept - b.kept}
}

// simulateStep sends one simulate, checks its body against want and
// returns how it moved the counters.
func simulateStep(t *testing.T, s *Server, req Request, want []byte) simCounters {
	t.Helper()
	before := simCountersOf(s)
	got, err := s.Simulate(context.Background(), req)
	if err != nil {
		t.Fatalf("simulate capacity %d: %v", req.Capacity, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("simulate capacity %d: body differs from fresh runs:\n%s\nwant\n%s", req.Capacity, got, want)
	}
	return simCountersOf(s).minus(before)
}

// A whitespace variant of a known source misses the source's alias,
// parses and finds the program by fingerprint (no program-tier miss), and
// is then answered from the rows the entry keeps; that gives the variant
// its own alias, which its repeat resolves by.
func TestSimulateWhitespaceVariantSharesEntry(t *testing.T) {
	cfg := testConfig()
	cfg.ResponseCache = -1
	s := New(cfg)
	defer s.Close()
	src, p := paperLoop(t, 0)
	variant := whitespaceVariant(t, src)
	for i, step := range []struct {
		src  string
		cap  int
		want simCounters
	}{
		{src, capA, simCounters{misses: 1}},
		{src, capB, simCounters{hits: 1, kept: 1}}, // gives src its alias
		{variant, capC, simCounters{hits: 1, kept: 1}},
		{variant, capA, simCounters{sourceHits: 1, hits: 1, kept: 1}},
		{src, capC, simCounters{sourceHits: 1, hits: 1, kept: 1}},
	} {
		got := simulateStep(t, s, Request{Program: step.src, Capacity: step.cap}, oracleOf(t, p, 0, step.cap))
		if got != step.want {
			t.Errorf("step %d: counters moved %+v, want %+v", i, got, step.want)
		}
	}
	if cs := s.CacheStats(); cs.Entries != 3 {
		t.Errorf("program tier holds %d entries, want 3 (one program, two aliases)", cs.Entries)
	}
}

// With a two-entry program tier and three programs, aliases and
// fingerprint entries are evicted independently: an alias outlives its
// program's fingerprint entry and a fingerprint entry outlives its
// program's alias. Timelines label other programs into the tier without
// storing aliases. Every answer stays the fresh runs', and each timeline
// a fresh server's.
func TestSimulateAliasAndFingerprintEvictIndependently(t *testing.T) {
	cfg := testConfig()
	cfg.CacheCapacity = 2
	cfg.ResponseCache = -1
	s := New(cfg)
	defer s.Close()
	srcA, pA := paperLoop(t, 0)
	srcB, pB := paperLoop(t, 1)
	srcC, pC := paperLoop(t, 2)
	variantA := whitespaceVariant(t, srcA)
	type step struct {
		src      string
		p        *ir.Program
		cap      int
		timeline bool
		want     simCounters
	}
	// The comments give the tier after each step, least recently used
	// first.
	for i, st := range []step{
		{srcA, pA, capA, false, simCounters{misses: 1}},                       // fpA
		{srcA, pA, capB, false, simCounters{hits: 1, kept: 1}},                // fpA aliasA
		{srcB, pB, 0, true, simCounters{misses: 1}},                           // aliasA fpB
		{srcA, pA, capC, false, simCounters{sourceHits: 1, hits: 1, kept: 1}}, // fpB aliasA: it outlived fpA
		{variantA, pA, capA, false, simCounters{misses: 1}},                   // aliasA fpA, relabeled
		{srcC, pC, 0, true, simCounters{misses: 1}},                           // fpA fpC
		{srcA, pA, capB, false, simCounters{hits: 1, kept: 1}},                // fpA aliasA: fpA outlived aliasA
		{srcB, pB, capA, false, simCounters{misses: 1}},                       // aliasA fpB
		{srcC, pC, capA, false, simCounters{misses: 1}},                       // fpB fpC
	} {
		var got simCounters
		if st.timeline {
			before := simCountersOf(s)
			var buf bytes.Buffer
			if err := s.SimulateTimeline(context.Background(), Request{Program: st.src}, &buf); err != nil {
				t.Fatal(err)
			}
			if want := freshTimeline(t, Request{Program: st.src}); !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("step %d: timeline differs from a fresh server's", i)
			}
			got = simCountersOf(s).minus(before)
		} else {
			got = simulateStep(t, s, Request{Program: st.src, Capacity: st.cap}, oracleOf(t, st.p, 0, st.cap))
		}
		if got != st.want {
			t.Errorf("step %d: counters moved %+v, want %+v", i, got, st.want)
		}
	}
	if cs := s.CacheStats(); cs.Entries != 2 || cs.Evictions == 0 {
		t.Errorf("program tier: %d entries, %d evictions; want 2 and some", cs.Entries, cs.Evictions)
	}
}

// freshTimeline is the timeline document a server that never saw the
// request's program exports for it.
func freshTimeline(t *testing.T, req Request) []byte {
	t.Helper()
	s := New(testConfig())
	defer s.Close()
	var buf bytes.Buffer
	if err := s.SimulateTimeline(context.Background(), req, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A timeline of a source that has an alias (its second simulate gave it
// one) reads the program through the alias, with no parse, and exports the
// bytes a fresh server exports.
func TestTimelineOfKnownSource(t *testing.T) {
	cfg := testConfig()
	cfg.ResponseCache = -1
	s := New(cfg)
	defer s.Close()
	src, _ := paperLoop(t, 3)
	req := Request{Program: src, Procs: 8, Capacity: 64}
	for i := 0; i < 2; i++ {
		if _, err := s.Simulate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.SimulateTimeline(context.Background(), req, &buf); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().SnapshotNow().SimSourceHits; got != 1 {
		t.Errorf("sim_source_hits = %d, want 1 (the timeline resolved by alias)", got)
	}
	if !bytes.Equal(buf.Bytes(), freshTimeline(t, req)) {
		t.Error("known-source timeline differs from a fresh server's")
	}
}

// An alias is stored only for a simulate that succeeded: a malformed
// source answers 400 on every repeat, and a program text that is an
// example's name never resolves through that example's alias, whether the
// response cache is on or off.
func TestSimulateAliasNeedsASuccessfulSelector(t *testing.T) {
	for _, respCache := range []int{0, -1} {
		cfg := testConfig()
		cfg.ResponseCache = respCache
		s := New(cfg)
		ctx := context.Background()
		for i := 0; i < 2; i++ {
			if _, err := s.Simulate(ctx, Request{Program: "program broken\nvar a[", Capacity: capA}); !errors.Is(err, ErrBadRequest) {
				t.Errorf("response cache %d: malformed source, attempt %d: err = %v, want ErrBadRequest", respCache, i, err)
			}
		}
		for _, name := range []string{"fig2", "intro"} {
			for _, c := range []int{capA, capB} { // the second gives the name its alias
				if _, err := s.Simulate(ctx, Request{Example: name, Capacity: c}); err != nil {
					t.Fatal(err)
				}
			}
			for _, c := range []int{capA, capB} {
				if _, err := s.Simulate(ctx, Request{Program: name, Capacity: c}); !errors.Is(err, ErrBadRequest) {
					t.Errorf("response cache %d: program %q at capacity %d: err = %v, want ErrBadRequest", respCache, name, c, err)
				}
			}
		}
		if _, err := s.Simulate(ctx, Request{Example: "fig2", Capacity: capC}); err != nil {
			t.Fatal(err)
		}
		if got := s.Metrics().SnapshotNow().SimSourceHits; got != 1 {
			t.Errorf("response cache %d: sim_source_hits = %d, want 1 (only the example's repeat)", respCache, got)
		}
		s.Close()
	}
}

// A simulate answered from kept rows registers its program as a delta
// base, like a computed one: with a one-base registry, the base another
// request evicted resolves again afterwards.
func TestKeptRowAnswerRegistersDeltaBase(t *testing.T) {
	cfg := testConfig()
	cfg.DeltaBases = 1
	s := New(cfg)
	defer s.Close()
	ctx := context.Background()
	src := deltaBaseSrc
	delta := Request{Base: fpHexOf(t, src), Patches: []RegionPatch{{Region: "r1", Source: deltaPatchR1}}}

	if _, err := s.Simulate(ctx, Request{Program: src, Capacity: capA}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Label(ctx, Request{Program: testProgramSrc}); err != nil {
		t.Fatal(err) // registers its own base, evicting the loop's
	}
	if _, err := s.Label(ctx, delta); !errors.Is(err, ErrUnknownBase) {
		t.Fatalf("delta against the evicted base: err = %v, want ErrUnknownBase", err)
	}
	if _, err := s.Simulate(ctx, Request{Program: src, Capacity: capB}); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().SnapshotNow().SimAnsweredKept; got != 1 {
		t.Fatalf("sim_answered_kept = %d, want 1", got)
	}
	got, err := s.Label(ctx, delta)
	if err != nil {
		t.Fatalf("delta after the kept-row answer: %v", err)
	}
	patched, err := applyPatches(src, delta.Patches)
	if err != nil {
		t.Fatal(err)
	}
	if want := labelFresh(t, patched, false); !bytes.Equal(got, want) {
		t.Error("delta answer differs from a full label of the patched program")
	}
}

// Concurrent first simulates of one source, on a few machines with
// duplicates among them, share one program entry: every body is the
// fresh runs', and after one more repeat the source resolves by its
// alias.
func TestConcurrentFirstSimulatesOfOneSource(t *testing.T) {
	cfg := testConfig()
	cfg.ResponseCache = -1
	s := New(cfg)
	defer s.Close()
	src, p := paperLoop(t, 1)
	type machine struct{ procs, capacity int }
	machines := []machine{{2, capA}, {4, capA}, {2, capB}, {4, 32}}
	want := map[machine][]byte{}
	for _, m := range machines {
		want[m] = oracleOf(t, p, m.procs, m.capacity)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		m := machines[i%len(machines)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := s.Simulate(context.Background(), Request{Program: src, Procs: m.procs, Capacity: m.capacity})
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, want[m]) {
				t.Errorf("procs %d capacity %d: body differs from fresh runs", m.procs, m.capacity)
			}
		}()
	}
	wg.Wait()
	// Whichever of them found the entry by fingerprint gave the source its
	// alias; if none did, this repeat does.
	simulateStep(t, s, Request{Program: src, Procs: 2, Capacity: capB}, oracleOf(t, p, 2, capB))
	before := simCountersOf(s)
	simulateStep(t, s, Request{Program: src, Procs: 2, Capacity: capC}, oracleOf(t, p, 2, capC))
	if got := simCountersOf(s).minus(before); got != (simCounters{sourceHits: 1, hits: 1, kept: 1}) {
		t.Errorf("repeat moved the counters %+v, want one source hit answered from kept rows", got)
	}
	if cs := s.CacheStats(); cs.Entries != 2 {
		t.Errorf("program tier holds %d entries, want 2 (the program and its alias)", cs.Entries)
	}
}
