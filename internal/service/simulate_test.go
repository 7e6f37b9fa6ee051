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

// simCase is one simulate request with its oracle body.
type simCase struct {
	req  Request
	want []byte
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
	for _, spec := range workloads.NamedLoops() {
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
					req:  Request{Op: OpSimulate, Program: spec.Src, Procs: procs, Capacity: c},
					want: want,
				})
			}
		}
	}
	return cases, computed
}

// TestSimulateReuseMatchesFreshRuns is the exactness contract of the
// simulate path: whatever order requests arrive in, every body
// byte-equals the oracle's fresh runs, so a kept sequential run or
// saturated row is only ever served where it is the run a fresh
// simulation would do. Each order runs on a fresh server.
func TestSimulateReuseMatchesFreshRuns(t *testing.T) {
	cases, wantComputed := paperSimulateCases(t)
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
	// The program tier must hold every loop, or evictions drop kept rows.
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
			for _, c := range byCapacity(order.desc) {
				check(t, s, c)
			}
			if computed, reused := rows(t, s); computed != wantComputed {
				t.Errorf("%s: %d rows computed and %d reused, want %d computed", order.name, computed, reused, wantComputed)
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
