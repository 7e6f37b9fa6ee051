package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// twoPackages is `go test -bench -benchmem` output over two packages at
// GOMAXPROCS 2.
const twoPackages = `goos: linux
goarch: amd64
pkg: refidem
cpu: Intel(R) Xeon(R) Processor
BenchmarkDepsQueryExact-2      	     200	     19028 ns/op	     464 B/op	       8 allocs/op
BenchmarkDepsQueryEnsemble-2   	     200	     23243 ns/op	     784 B/op	      10 allocs/op
PASS
ok  	refidem	0.015s
goos: linux
goarch: amd64
pkg: refidem/internal/cluster
cpu: Intel(R) Xeon(R) Processor
BenchmarkRouterRoute-2   	     200	       664.7 ns/op	      96 B/op	       2 allocs/op
PASS
ok  	refidem/internal/cluster	0.010s
`

func TestReadRecordsEnvironment(t *testing.T) {
	doc, err := read(strings.NewReader(twoPackages))
	if err != nil {
		t.Fatal(err)
	}
	if doc.CPU != "Intel(R) Xeon(R) Processor" || doc.GOMAXPROCS != 2 {
		t.Errorf("cpu %q gomaxprocs %d, want the stream's CPU and 2", doc.CPU, doc.GOMAXPROCS)
	}
	want := map[string]Result{
		"BenchmarkDepsQueryExact":    {Iterations: 200, NsPerOp: 19028, BytesPerOp: 464, AllocsPerOp: 8},
		"BenchmarkDepsQueryEnsemble": {Iterations: 200, NsPerOp: 23243, BytesPerOp: 784, AllocsPerOp: 10},
		"BenchmarkRouterRoute":       {Iterations: 200, NsPerOp: 664.7, BytesPerOp: 96, AllocsPerOp: 2},
	}
	if len(doc.Benchmarks) != len(want) {
		t.Errorf("got %d benchmarks, want %d: %v", len(doc.Benchmarks), len(want), doc.Benchmarks)
	}
	for name, w := range want {
		if g, ok := doc.Benchmarks[name]; !ok || g.Iterations != w.Iterations || g.NsPerOp != w.NsPerOp ||
			g.BytesPerOp != w.BytesPerOp || g.AllocsPerOp != w.AllocsPerOp || g.Metrics != nil {
			t.Errorf("%s = %+v, want %+v", name, g, w)
		}
	}
}

// A name without a suffix ran at GOMAXPROCS 1.
func TestReadNoSuffixIsOneProc(t *testing.T) {
	doc, err := read(strings.NewReader("BenchmarkX \t 10\t 5 ns/op\t 3 widgets/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOMAXPROCS != 1 || doc.CPU != "" {
		t.Errorf("gomaxprocs %d cpu %q, want 1 and none", doc.GOMAXPROCS, doc.CPU)
	}
	if g := doc.Benchmarks["BenchmarkX"]; g.NsPerOp != 5 || g.Metrics["widgets/op"] != 3 {
		t.Errorf("BenchmarkX = %+v", g)
	}
}

// One document records one GOMAXPROCS: a stream of several is refused.
func TestReadMixedGOMAXPROCSFails(t *testing.T) {
	stream := "BenchmarkX-2 \t 10\t 5 ns/op\nBenchmarkX-4 \t 10\t 5 ns/op\n"
	if _, err := read(strings.NewReader(stream)); err == nil {
		t.Error("mixed stream accepted")
	}
}

// The gate compares benchmarks only; the environment may differ.
func TestGateIgnoresEnvironment(t *testing.T) {
	got, err := read(strings.NewReader(twoPackages))
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(base, []byte(`{"cpu": "another CPU", "gomaxprocs": 8,
		"benchmarks": {"BenchmarkRouterRoute": {"iterations": 1, "ns_per_op": 700, "allocs_per_op": 2}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runGate(got.Benchmarks, base, "BenchmarkRouterRoute", 0.25, 0, "", 1, ""); err != nil {
		t.Errorf("gate failed on matching benchmarks: %v", err)
	}
}
