package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"refidem/internal/engine"
	"refidem/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files from current output")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run go test ./cmd/specsim -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestNamedLoopsGolden locks the full three-model report for paper loops:
// the simulator is deterministic, so cycles, speedups and speculation
// statistics must reproduce bit-exactly.
func TestNamedLoopsGolden(t *testing.T) {
	for _, tc := range []struct {
		golden   string
		loop     string
		procs    int
		capacity int
	}{
		{"tomcatv_do80.golden", "TOMCATV MAIN_DO80", 4, 128},
		{"tomcatv_do80_tiny.golden", "TOMCATV MAIN_DO80", 4, 8},
		{"mgrid_do600.golden", "MGRID RESID_DO600", 8, 128},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			p, err := loadProgram(tc.loop, "")
			if err != nil {
				t.Fatal(err)
			}
			cfg := engine.DefaultConfig()
			cfg.Processors = tc.procs
			cfg.SpecCapacity = tc.capacity
			var buf bytes.Buffer
			if err := run(&buf, p, cfg, "", nil); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.golden, buf.Bytes())
		})
	}
}

// TestLoadProgramErrors covers the error paths main maps to exit code 1.
func TestLoadProgramErrors(t *testing.T) {
	cases := []struct {
		name       string
		loop, file string
	}{
		{"no input", "", ""},
		{"both inputs", "TOMCATV MAIN_DO80", "x.ril"},
		{"malformed loop name", "TOMCATV", ""},
		{"unknown loop", "NOPE NOPE_DO1", ""},
		{"missing file", "", filepath.Join(t.TempDir(), "missing.ril")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := loadProgram(tc.loop, tc.file); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestRunFile drives the -file path: parse, label, simulate, verify.
func TestRunFile(t *testing.T) {
	src := `program filetest
var a[16]
var b[16]
region main loop k = 0 to 15 {
  a[k] = b[k] + 1
}
`
	path := filepath.Join(t.TempDir(), "prog.ril")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := loadProgram("", path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, p, engine.DefaultConfig(), "", nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("verified against the sequential memory state")) {
		t.Errorf("unexpected output:\n%s", buf.String())
	}
}

// TestTimelineExport drives -timeline end to end on a loop-carried
// dependence chain (every iteration's read flow-violates against its
// predecessor's write): the file must be a structurally valid Chrome
// trace-event JSON document with both speculative runs as named
// processes, the report must match the plain run byte-for-byte up to
// the timeline addendum (recording must not perturb the simulation),
// and the squash-attribution table is golden-gated.
func TestTimelineExport(t *testing.T) {
	src := `program chain
var x[32]
region r loop k = 1 to 31 {
  x[k] = x[k-1] + 1
}
`
	srcPath := filepath.Join(t.TempDir(), "chain.ril")
	if err := os.WriteFile(srcPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := loadProgram("", srcPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.DefaultConfig()
	cfg.Processors = 4
	cfg.SpecCapacity = 16

	var plain bytes.Buffer
	if err := run(&plain, p, cfg, "", nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := run(&buf, p, cfg, path, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), plain.Bytes()) {
		t.Errorf("timeline run's report diverged from the plain run:\n--- plain ---\n%s\n--- timeline ---\n%s",
			plain.String(), buf.String())
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline file is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit == "" || len(doc.TraceEvents) == 0 {
		t.Fatalf("timeline document is empty: %s", raw)
	}
	procs := map[string]bool{}
	phases := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "" {
			t.Fatalf("event %q lacks a phase", e.Name)
		}
		phases[e.Ph] = true
		if e.Name == "process_name" {
			procs[e.Args["name"].(string)] = true
		}
	}
	for _, want := range []string{"HOSE", "CASE"} {
		if !procs[want] {
			t.Errorf("timeline lacks a %s process track (got %v)", want, procs)
		}
	}
	for _, want := range []string{"M", "X", "i"} {
		if !phases[want] {
			t.Errorf("timeline lacks %q-phase events", want)
		}
	}

	i := bytes.Index(buf.Bytes(), []byte("squash attribution"))
	if i < 0 {
		t.Fatalf("report lacks the squash-attribution table:\n%s", buf.String())
	}
	checkGolden(t, "chain_squash.golden", buf.Bytes()[i:])

	// Byte-determinism of the export itself.
	path2 := filepath.Join(t.TempDir(), "trace2.json")
	var buf2 bytes.Buffer
	if err := run(&buf2, p, cfg, path2, nil); err != nil {
		t.Fatal(err)
	}
	raw2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Error("timeline export is not byte-deterministic across identical runs")
	}
}

// TestTimelineBadPath maps an unwritable -timeline file to an error.
func TestTimelineBadPath(t *testing.T) {
	p, err := loadProgram("TOMCATV MAIN_DO80", "")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bad := filepath.Join(t.TempDir(), "missing-dir", "trace.json")
	if err := run(&buf, p, engine.DefaultConfig(), bad, nil); err == nil {
		t.Fatal("expected error for unwritable timeline path")
	}
}

// TestTraceOutput drives -trace on BUTS_DO1 with an 8-entry speculative
// storage, which forces overflow traffic: stderr receives the recorded
// commit and overflow-stall events of both speculative runs, one line
// each, and the report on stdout is byte-identical to the untraced run.
func TestTraceOutput(t *testing.T) {
	p := workloads.ButsDO1(6)
	cfg := engine.DefaultConfig()
	cfg.SpecCapacity = 8
	var plain, out, trace bytes.Buffer
	if err := run(&plain, p, cfg, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := run(&out, p, cfg, "", &trace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), plain.Bytes()) {
		t.Errorf("-trace changed the report:\n--- plain ---\n%s\n--- traced ---\n%s", plain.String(), out.String())
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(trace.String(), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[2], "t=") {
			t.Fatalf("malformed trace line %q", line)
		}
		seen[f[0]+" "+f[3]] = true
	}
	for _, want := range []string{"HOSE commit", "HOSE overflow-stall", "CASE commit", "CASE overflow-stall"} {
		if !seen[want] {
			t.Errorf("trace has no %q line:\n%s", want, trace.String())
		}
	}
}
