package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"refidem/internal/fuzz"
	"refidem/internal/ir"
	"refidem/internal/lang"
)

const deltaBaseSrc = `program delta_test
var a[16]
var b[16]
region r0 loop k = 0 to 15 {
  a[k] = (b[k] + 1)
}
region r1 loop k = 0 to 15 {
  b[k] = (a[k] + 2)
}
`

const deltaPatchR1 = `region r1 loop k = 0 to 15 {
  b[k] = (a[k] + 3)
}
`

func fpHexOf(t testing.TB, src string) string {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fp := ir.FingerprintOf(p)
	return hex.EncodeToString(fp[:])
}

// labelFresh answers "what would a server that never saw the base say
// about this full source?" — the delta-equivalence oracle.
func labelFresh(t testing.TB, src string, deps bool) []byte {
	t.Helper()
	s := New(testConfig())
	defer s.Close()
	raw, err := s.Label(context.Background(), Request{Program: src, Deps: deps})
	if err != nil {
		t.Fatalf("oracle full label: %v", err)
	}
	return raw
}

// A delta that touches one region must reuse every other region's row
// and still produce bytes identical to a full re-label.
func TestDeltaRelabelsOnlyChangedRegion(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ctx := context.Background()

	if _, err := s.Label(ctx, Request{Program: deltaBaseSrc}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Label(ctx, Request{
		Base:    fpHexOf(t, deltaBaseSrc),
		Patches: []RegionPatch{{Region: "r1", Source: deltaPatchR1}},
	})
	if err != nil {
		t.Fatal(err)
	}

	composed, err := applyPatches(deltaBaseSrc, []RegionPatch{{Region: "r1", Source: deltaPatchR1}})
	if err != nil {
		t.Fatal(err)
	}
	want := labelFresh(t, composed, false)
	if !bytes.Equal(got, want) {
		t.Fatalf("delta bytes differ from full re-label\ndelta: %s\nfull:  %s", got, want)
	}

	snap := s.Metrics().SnapshotNow()
	if snap.DeltaRequests != 1 {
		t.Fatalf("delta_requests = %d, want 1", snap.DeltaRequests)
	}
	// The patch changes r1's body but not r0's inputs (a and b stay
	// live-out of r0 either way): exactly one region re-labeled, one
	// reused.
	if snap.RegionsRelabeled != 1 || snap.RegionsReused != 1 {
		t.Fatalf("relabeled/reused = %d/%d, want 1/1", snap.RegionsRelabeled, snap.RegionsReused)
	}
}

// A patch that shifts inter-region liveness must re-label the upstream
// region too: dropping r1's read of `a` kills a's live-out at r0, which
// is one of r0's labeling inputs.
func TestDeltaLivenessShiftRelabelsDependents(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ctx := context.Background()

	if _, err := s.Label(ctx, Request{Program: deltaBaseSrc}); err != nil {
		t.Fatal(err)
	}
	patch := RegionPatch{Region: "r1", Source: "region r1 loop k = 0 to 15 {\n  b[k] = (k + 3)\n}\n"}
	got, err := s.Label(ctx, Request{Base: fpHexOf(t, deltaBaseSrc), Patches: []RegionPatch{patch}})
	if err != nil {
		t.Fatal(err)
	}
	composed, err := applyPatches(deltaBaseSrc, []RegionPatch{patch})
	if err != nil {
		t.Fatal(err)
	}
	if want := labelFresh(t, composed, false); !bytes.Equal(got, want) {
		t.Fatalf("delta bytes differ from full re-label")
	}
	snap := s.Metrics().SnapshotNow()
	if snap.RegionsRelabeled != 2 || snap.RegionsReused != 0 {
		t.Fatalf("relabeled/reused = %d/%d, want 2/0 (liveness shift must invalidate r0)",
			snap.RegionsRelabeled, snap.RegionsReused)
	}
}

// Deps requests carry the dependence lists identically on both paths.
func TestDeltaEquivalenceWithDeps(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ctx := context.Background()

	if _, err := s.Label(ctx, Request{Program: deltaBaseSrc, Deps: true}); err != nil {
		t.Fatal(err)
	}
	patches := []RegionPatch{{Region: "r1", Source: deltaPatchR1}}
	got, err := s.Label(ctx, Request{Base: fpHexOf(t, deltaBaseSrc), Patches: patches, Deps: true})
	if err != nil {
		t.Fatal(err)
	}
	composed, err := applyPatches(deltaBaseSrc, patches)
	if err != nil {
		t.Fatal(err)
	}
	if want := labelFresh(t, composed, true); !bytes.Equal(got, want) {
		t.Fatalf("deps delta bytes differ from full re-label\ndelta: %s\nfull:  %s", got, want)
	}
}

// A base entry keeps its rows per "deps" flag. Rows rendered for a
// deps-less request carry no dependence list, so a deps delta over the
// same regions must relabel them rather than reuse those rows: every body
// equals a fresh full label of its program and flag, only deps bodies
// carry "deps", and the delta_regions_* counters show the relabeling.
func TestDeltaDepsFlagKeysFragments(t *testing.T) {
	const base = `program deps_flag
var a[16]
var b[16]
region r0 loop k = 1 to 15 {
  a[k] = (a[(k - 1)] + b[k])
}
region r1 loop k = 0 to 15 {
  b[k] = (a[k] + 2)
}
`
	patches := []RegionPatch{{Region: "r1", Source: deltaPatchR1}}
	composed, err := applyPatches(base, patches)
	if err != nil {
		t.Fatal(err)
	}
	baseFP := fpHexOf(t, base)
	s := New(testConfig())
	defer s.Close()
	ctx := context.Background()
	for _, step := range []struct {
		name              string
		req               Request
		src               string // the program the body must label
		relabeled, reused int64  // delta_regions_* advances
	}{
		{"full", Request{Program: base}, base, 0, 0},
		{"delta", Request{Base: baseFP, Patches: patches}, composed, 1, 1},
		{"delta+deps", Request{Base: baseFP, Patches: patches, Deps: true}, composed, 2, 0},
	} {
		before := s.Metrics().SnapshotNow()
		got, err := s.Label(ctx, step.req)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if want := labelFresh(t, step.src, step.req.Deps); !bytes.Equal(got, want) {
			t.Fatalf("%s: bytes differ from a fresh full label\ngot:  %s\nwant: %s", step.name, got, want)
		}
		if has := bytes.Contains(got, []byte(`"deps":`)); has != step.req.Deps {
			t.Fatalf("%s: body carries a dependence list = %v, want %v", step.name, has, step.req.Deps)
		}
		after := s.Metrics().SnapshotNow()
		relabeled := after.RegionsRelabeled - before.RegionsRelabeled
		reused := after.RegionsReused - before.RegionsReused
		if relabeled != step.relabeled || reused != step.reused {
			t.Fatalf("%s: relabeled/reused = %d/%d, want %d/%d",
				step.name, relabeled, reused, step.relabeled, step.reused)
		}
	}
}

// rowPool is the traffic of TestBaseRowsUnderEviction: programs with the
// fresh answers to their full labels per "deps" flag, and deltas between
// them. A program a delta composes has from set to that delta.
type rowPool struct {
	progs  []rowProgram
	deltas []rowDelta
}

type rowProgram struct {
	req  Request // the full label request, deps unset
	fp   string  // the registry key a delta names it by
	src  string  // canonical source
	from int     // the delta composing it, or -1
	want [2][]byte
}

type rowDelta struct {
	base    int
	patches []RegionPatch
}

// add puts the program of the full label request req into the pool.
func (p *rowPool) add(t *testing.T, req Request, from int) int {
	t.Helper()
	prog, err := resolveProgram(req)
	if err != nil {
		t.Fatal(err)
	}
	src, fp := ir.Canonical(prog)
	rp := rowProgram{req: req, fp: hex.EncodeToString(fp[:]), src: src, from: from}
	for flag := range rp.want {
		req.Deps = flag == 1
		rp.want[flag] = freshLabel(t, req)
	}
	p.progs = append(p.progs, rp)
	return len(p.progs) - 1
}

// delta adds a delta against program base, with the given patches or, if
// none, one that rewrites the first region, and returns the program it
// composes.
func (p *rowPool) delta(t *testing.T, base int, patches ...RegionPatch) int {
	t.Helper()
	src := p.progs[base].src
	if len(patches) == 0 {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		patches = []RegionPatch{mutateFirstRegion(t, src, prog)}
	}
	composed, err := applyPatches(src, patches)
	if err != nil {
		t.Fatal(err)
	}
	p.deltas = append(p.deltas, rowDelta{base: base, patches: patches})
	return p.add(t, Request{Program: composed}, len(p.deltas)-1)
}

// freshLabel is the body a server that never saw req's program answers.
func freshLabel(t testing.TB, req Request) []byte {
	t.Helper()
	s := New(testConfig())
	defer s.Close()
	raw, err := s.Label(context.Background(), req)
	if err != nil {
		t.Fatalf("fresh label: %v", err)
	}
	return raw
}

// Region rows live in the base registry, so its evictions decide which
// rows a label may reuse. With two bases and no response cache, eight
// goroutines send full labels with and without "deps", deltas, deltas
// against composed programs and patches that shift inter-region liveness
// over about a dozen programs. Every answer equals a fresh server's label
// of its program and flag; a delta whose base was evicted may fail with
// ErrUnknownBase, and answers nothing else.
func TestBaseRowsUnderEviction(t *testing.T) {
	var pool rowPool
	base := pool.add(t, Request{Program: deltaBaseSrc}, -1)
	shift := RegionPatch{Region: "r1", Source: "region r1 loop k = 0 to 15 {\n  b[k] = (k + 3)\n}\n"}
	patched := pool.delta(t, base, RegionPatch{Region: "r1", Source: deltaPatchR1})
	pool.delta(t, patched, RegionPatch{Region: "r2", Source: "region r2 loop k = 0 to 15 {\n  a[k] = (b[k] + 5)\n}\n"})
	pool.delta(t, patched, shift)
	pool.delta(t, base, shift)
	for _, src := range benchSources(7)[4:] {
		pool.delta(t, pool.add(t, Request{Program: src}, -1))
	}
	var example int
	for _, name := range []string{"fig1", "fig2", "fig3", "buts"} {
		example = pool.add(t, Request{Example: name}, -1)
		pool.delta(t, example)
	}
	pool.delta(t, example, RegionPatch{Region: "tail", Source: "region tail loop k = 0 to 4 {\n  t[k] = 1\n}\n"})

	cfg := testConfig()
	cfg.DeltaBases = 2
	cfg.ResponseCache = -1
	s := New(cfg)
	defer s.Close()
	ctx := context.Background()
	const goroutines, rounds = 8, 100
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 29))
			// send labels program i by req and reports whether it answered.
			send := func(req Request, i int) bool {
				req.Deps = rng.IntN(2) == 1
				got, err := s.Label(ctx, req)
				if err != nil {
					if req.Base == "" || !errors.Is(err, ErrUnknownBase) {
						t.Errorf("program %d (deps %v): %v", i, req.Deps, err)
					}
					return false
				}
				if want := pool.progs[i].want[flagIndex(req.Deps)]; !bytes.Equal(got, want) {
					t.Errorf("program %d (deps %v, delta %v): body differs from a fresh label\ngot:  %s\nwant: %s",
						i, req.Deps, req.Base != "", got, want)
				}
				return true
			}
			// reach labels program i: in full, or as the delta composing
			// it after reaching that delta's base.
			var reach func(i int) bool
			reach = func(i int) bool {
				p := pool.progs[i]
				if p.from < 0 || rng.IntN(3) == 0 {
					return send(p.req, i)
				}
				d := pool.deltas[p.from]
				return reach(d.base) && send(Request{Base: pool.progs[d.base].fp, Patches: d.patches}, i)
			}
			for range rounds {
				reach(rng.IntN(len(pool.progs)))
			}
		}()
	}
	wg.Wait()
	snap := s.Metrics().SnapshotNow()
	t.Logf("%d deltas, %d with an unknown base; regions reused %d, relabeled %d",
		snap.DeltaRequests, snap.DeltaUnknownBase, snap.RegionsReused, snap.RegionsRelabeled)
	if snap.RegionsReused == 0 {
		t.Error("no delta reused a row")
	}
}

// A patch naming a region the base lacks appends it.
func TestDeltaAppendsNewRegion(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ctx := context.Background()

	if _, err := s.Label(ctx, Request{Program: deltaBaseSrc}); err != nil {
		t.Fatal(err)
	}
	patch := RegionPatch{Region: "r2", Source: "region r2 loop k = 0 to 15 {\n  a[k] = (b[k] + 5)\n}\n"}
	got, err := s.Label(ctx, Request{Base: fpHexOf(t, deltaBaseSrc), Patches: []RegionPatch{patch}})
	if err != nil {
		t.Fatal(err)
	}
	composed, err := applyPatches(deltaBaseSrc, []RegionPatch{patch})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(composed, "region r2") {
		t.Fatalf("patch did not append:\n%s", composed)
	}
	if want := labelFresh(t, composed, false); !bytes.Equal(got, want) {
		t.Fatalf("append delta bytes differ from full re-label")
	}
	var doc LabelResponse
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Regions) != 3 {
		t.Fatalf("composed program has %d regions, want 3", len(doc.Regions))
	}
}

// The corpus-wide equivalence sweep: for every fuzz reproducer, mutate
// its first region through the delta path and assert the response is
// byte-identical to fully labeling the composed program, with the
// recompute counters accounting for every region.
func TestDeltaEquivalenceCorpus(t *testing.T) {
	corpus, err := fuzz.LoadCorpus("../proptest/testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Skip("no corpus entries")
	}
	ctx := context.Background()
	tested := 0
	for _, entry := range corpus {
		entry := entry
		t.Run(strings.TrimSuffix(strings.TrimPrefix(entry.Path, "../proptest/testdata/corpus/"), ".prog"), func(t *testing.T) {
			p, err := entry.Program()
			if err != nil {
				t.Fatalf("corpus entry does not parse: %v", err)
			}
			if len(p.Regions) == 0 || len(p.Vars) == 0 {
				t.Skip("nothing to patch")
			}
			src := p.Format()

			s := New(testConfig())
			defer s.Close()
			if _, err := s.Label(ctx, Request{Program: src}); err != nil {
				t.Fatalf("base label: %v", err)
			}

			patch := mutateFirstRegion(t, src, p)
			got, err := s.Label(ctx, Request{Base: fpHexOf(t, src), Patches: []RegionPatch{patch}})
			if err != nil {
				t.Fatalf("delta label: %v", err)
			}
			composed, err := applyPatches(src, []RegionPatch{patch})
			if err != nil {
				t.Fatal(err)
			}
			if want := labelFresh(t, composed, false); !bytes.Equal(got, want) {
				t.Fatalf("delta bytes differ from full re-label of composed program\npatch: %s\ndelta: %s\nfull:  %s",
					patch.Source, got, want)
			}

			snap := s.Metrics().SnapshotNow()
			if snap.RegionsRelabeled < 1 {
				t.Fatalf("mutated region was not re-labeled (relabeled=%d)", snap.RegionsRelabeled)
			}
			cp, err := lang.Parse(composed)
			if err != nil {
				t.Fatal(err)
			}
			if total := snap.RegionsRelabeled + snap.RegionsReused; total != int64(len(cp.Regions)) {
				t.Fatalf("relabeled+reused = %d, want %d (every region accounted for)", total, len(cp.Regions))
			}
			tested++
		})
	}
	t.Logf("delta equivalence held across %d corpus programs", tested)
}

// mutateFirstRegion builds a patch replacing the first region's body
// with a single self-increment of the program's first variable — a
// mutation that parses for any program (one subscript per dimension of
// the variable).
func mutateFirstRegion(t testing.TB, src string, p *ir.Program) RegionPatch {
	t.Helper()
	_, blocks := splitSource(src)
	if len(blocks) == 0 {
		t.Fatal("splitSource found no region blocks")
	}
	block := blocks[0]
	nl := strings.IndexByte(block.text, '\n')
	if nl < 0 {
		t.Fatalf("malformed region block: %q", block.text)
	}
	header := block.text[:nl]
	ref := p.Vars[0].Name
	if dims := len(p.Vars[0].Dims); dims > 0 {
		ref += "[" + strings.Repeat("0,", dims-1) + "0]"
	}
	stmt := ref + " = (" + ref + " + 1)"
	if strings.Contains(" "+header+" ", " cfg ") {
		// CFG regions need segment bodies; preserve the liveout line when
		// the original declares one.
		body := ""
		rest := block.text[nl+1:]
		if line, _, ok := strings.Cut(rest, "\n"); ok && strings.HasPrefix(line, "  liveout") {
			body = line + "\n"
		}
		return RegionPatch{
			Region: block.name,
			Source: header + "\n" + body + "  segment s0 {\n    " + stmt + "\n  }\n}\n",
		}
	}
	return RegionPatch{
		Region: block.name,
		Source: header + "\n  " + stmt + "\n}\n",
	}
}

func TestDeltaUnknownBase(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	_, err := s.Label(context.Background(), Request{Base: strings.Repeat("00", 32)})
	if !errors.Is(err, ErrUnknownBase) {
		t.Fatalf("err = %v, want ErrUnknownBase", err)
	}
	snap := s.Metrics().SnapshotNow()
	if snap.DeltaRequests != 1 || snap.DeltaUnknownBase != 1 {
		t.Fatalf("delta_requests/unknown = %d/%d, want 1/1", snap.DeltaRequests, snap.DeltaUnknownBase)
	}
}

func TestDeltaDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.DeltaBases = -1
	s := New(cfg)
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Label(ctx, Request{Program: deltaBaseSrc}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Label(ctx, Request{Base: fpHexOf(t, deltaBaseSrc)})
	if !errors.Is(err, ErrUnknownBase) {
		t.Fatalf("err = %v, want ErrUnknownBase when delta serving is disabled", err)
	}
}

func TestDeltaBaseRegistryEviction(t *testing.T) {
	cfg := testConfig()
	cfg.DeltaBases = 1
	s := New(cfg)
	defer s.Close()
	ctx := context.Background()

	other := strings.Replace(deltaBaseSrc, "program delta_test", "program delta_other", 1)
	if _, err := s.Label(ctx, Request{Program: deltaBaseSrc}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Label(ctx, Request{Program: other}); err != nil {
		t.Fatal(err)
	}
	// Capacity 1: labeling `other` evicted the first base.
	if _, err := s.Label(ctx, Request{Base: fpHexOf(t, deltaBaseSrc)}); !errors.Is(err, ErrUnknownBase) {
		t.Fatalf("err = %v, want ErrUnknownBase after eviction", err)
	}
	if _, err := s.Label(ctx, Request{Base: fpHexOf(t, other)}); err != nil {
		t.Fatalf("most recent base must survive: %v", err)
	}
}

// TestResendReregistersEvictedBase pins the documented unknown-base
// recovery when the resend is answered from the response cache: the hit
// must restore the evicted base so the client's next delta resolves.
func TestResendReregistersEvictedBase(t *testing.T) {
	cfg := testConfig()
	cfg.DeltaBases = 1
	s := New(cfg)
	defer s.Close()
	ctx := context.Background()

	other := strings.Replace(deltaBaseSrc, "program delta_test", "program delta_other", 1)
	for _, src := range []string{deltaBaseSrc, other, deltaBaseSrc} { // P, Q, resend P
		if _, err := s.Label(ctx, Request{Program: src}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Metrics().SnapshotNow().RespHits; got != 1 {
		t.Fatalf("response cache hits = %d, want 1 (the resend)", got)
	}
	delta := Request{Base: fpHexOf(t, deltaBaseSrc), Patches: []RegionPatch{{Region: "r1", Source: deltaPatchR1}}}
	if _, err := s.Label(ctx, delta); err != nil {
		t.Fatalf("delta after resend: %v", err)
	}
}

func TestDeltaRequestValidation(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Label(ctx, Request{Program: deltaBaseSrc}); err != nil {
		t.Fatal(err)
	}
	base := fpHexOf(t, deltaBaseSrc)

	cases := []struct {
		name string
		req  Request
	}{
		{"base and program", Request{Base: base, Program: deltaBaseSrc}},
		{"base and example", Request{Base: base, Example: "fig2"}},
		{"patches without base", Request{Program: deltaBaseSrc, Patches: []RegionPatch{{Region: "r1", Source: deltaPatchR1}}}},
		{"patch name mismatch", Request{Base: base, Patches: []RegionPatch{{Region: "r0", Source: deltaPatchR1}}}},
		{"patch empty name", Request{Base: base, Patches: []RegionPatch{{Source: deltaPatchR1}}}},
		{"patch does not parse", Request{Base: base, Patches: []RegionPatch{{Region: "r1", Source: "region r1 {{{"}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Label(ctx, tc.req)
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("err = %v, want ErrBadRequest", err)
			}
		})
	}
}

// A no-patch delta resolves to the base itself and must serve the same
// bytes as the original full request.
func TestDeltaNoPatchesServesBase(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ctx := context.Background()
	full, err := s.Label(ctx, Request{Program: deltaBaseSrc})
	if err != nil {
		t.Fatal(err)
	}
	viaBase, err := s.Label(ctx, Request{Base: fpHexOf(t, deltaBaseSrc)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, viaBase) {
		t.Fatalf("base-only delta differs from original full response")
	}
}

func TestSplitSourceRoundTrip(t *testing.T) {
	p, err := lang.Parse(deltaBaseSrc)
	if err != nil {
		t.Fatal(err)
	}
	src := p.Format()
	header, blocks := splitSource(src)
	if len(blocks) != 2 || blocks[0].name != "r0" || blocks[1].name != "r1" {
		t.Fatalf("splitSource blocks = %+v", blocks)
	}
	var b strings.Builder
	b.WriteString(header)
	for _, blk := range blocks {
		b.WriteString(blk.text)
	}
	if b.String() != src {
		t.Fatalf("splitSource does not round-trip:\n%q\nvs\n%q", b.String(), src)
	}
}
