package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestFlightRecorderRing(t *testing.T) {
	r := NewFlightRecorder(4)
	if r.Cap() != 4 {
		t.Fatalf("Cap() = %d, want 4", r.Cap())
	}
	for i := 1; i <= 6; i++ {
		sp := Begin("label")
		sp.TraceID = r.NextID()
		if sp.TraceID != uint64(i) {
			t.Fatalf("NextID = %d, want %d", sp.TraceID, i)
		}
		sp.Lap(StageAdmission)
		sp.End("ok")
		r.Record(sp)
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("Snapshot holds %d spans, want 4 (ring capacity)", len(got))
	}
	// Newest trace ID first; the two oldest spans were overwritten.
	want := []uint64{6, 5, 4, 3}
	for i, sp := range got {
		if sp.TraceID != want[i] {
			t.Errorf("Snapshot[%d].TraceID = %d, want %d", i, sp.TraceID, want[i])
		}
		if sp.Op != "label" || sp.Outcome != "ok" {
			t.Errorf("Snapshot[%d] = op %q outcome %q, want label/ok", i, sp.Op, sp.Outcome)
		}
		if sp.Total < 0 || sp.Stages[StageAdmission] < 0 {
			t.Errorf("Snapshot[%d] has negative durations: %+v", i, sp)
		}
	}
}

func TestFlightRecorderSkipsUnwritten(t *testing.T) {
	r := NewFlightRecorder(8)
	// Claim IDs 1..3 but only record 2: in-flight requests must not
	// surface as ghost spans.
	r.NextID()
	id2 := r.NextID()
	r.NextID()
	sp := Begin("simulate")
	sp.TraceID = id2
	sp.End("ok")
	r.Record(sp)
	got := r.Snapshot()
	if len(got) != 1 || got[0].TraceID != 2 {
		t.Fatalf("Snapshot = %+v, want exactly the one recorded span (id 2)", got)
	}
}

func TestFlightRecorderEmpty(t *testing.T) {
	r := NewFlightRecorder(0)
	if r.Cap() != 256 {
		t.Fatalf("Cap() = %d, want default 256", r.Cap())
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("empty recorder Snapshot = %v, want none", got)
	}
	r.Record(Span{}) // TraceID 0 must be a no-op, not a slot write
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("zero-ID Record leaked a span: %v", got)
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	r := NewFlightRecorder(16)
	sp := Begin("label")
	sp.Lap(StageCompute)
	sp.End("ok")
	allocs := testing.AllocsPerRun(100, func() {
		sp.TraceID = r.NextID()
		r.Record(sp)
	})
	if allocs != 0 {
		t.Fatalf("NextID+Record allocated %.1f times per op, want 0", allocs)
	}
}

func TestSpanLapAccumulates(t *testing.T) {
	sp := Begin("label")
	sp.Lap(StageAdmission)
	sp.Lap(StageAdmission)
	sp.Lap(StageRespCache)
	sp.End("ok")
	var sum int64
	for _, d := range sp.Stages {
		if d < 0 {
			t.Fatalf("negative stage duration in %+v", sp.Stages)
		}
		sum += d
	}
	if sp.Total < sum {
		// End is stamped after the last lap, so total covers the laps.
		t.Fatalf("Total %d ns < sum of stages %d ns", sp.Total, sum)
	}
	if sp.Stages[StageStoreRead] != 0 {
		t.Fatalf("unvisited stage nonzero: %+v", sp.Stages)
	}
}

func TestStageStrings(t *testing.T) {
	want := map[Stage]string{
		StageAdmission:    "admission",
		StageRespCache:    "resp_cache",
		StageSingleflight: "singleflight",
		StageStoreRead:    "store_read",
		StageCompute:      "compute",
		StageStoreWrite:   "store_write",
		NumStages:         "unknown",
	}
	for st, s := range want {
		if st.String() != s {
			t.Errorf("Stage(%d).String() = %q, want %q", st, st.String(), s)
		}
	}
}

func TestTimelineCapAndDrops(t *testing.T) {
	tl := &Timeline{MaxEvents: 3}
	tl.BeginRegion("r", 0, nil)
	for i := 0; i < 5; i++ {
		tl.Add(Event{Kind: EvSpawn, Time: int64(i), Ref: -1})
	}
	tl.EndRegion(10)
	if len(tl.Events) != 3 {
		t.Fatalf("stored %d events, want 3 (MaxEvents)", len(tl.Events))
	}
	if tl.Dropped != 2 {
		t.Fatalf("Dropped = %d, want 2", tl.Dropped)
	}
	if tl.Regions[0].End != 10 {
		t.Fatalf("region end = %d, want 10", tl.Regions[0].End)
	}
}

func TestTimelineRefAttribution(t *testing.T) {
	tl := &Timeline{}
	refs := []RefInfo{
		{Text: "read a[i]", Label: "idempotent", Category: "read-only"},
		{Text: "write b[i]", Label: "speculative", Category: "other"},
	}
	tl.BeginRegion("loop", 0, refs)
	tl.Add(Event{Kind: EvSquash, Time: 40, Dur: 30, Ref: 1, Cause: CauseFlowViolation})
	tl.Add(Event{Kind: EvCommit, Time: 50, Dur: 20, Ref: -1})
	tl.EndRegion(60)

	if info, ok := tl.RefInfo(&tl.Events[0]); !ok || info.Text != "write b[i]" {
		t.Fatalf("refInfo(squash) = %+v, %v; want write b[i]", info, ok)
	}
	if _, ok := tl.RefInfo(&tl.Events[1]); ok {
		t.Fatalf("refInfo resolved a Ref=-1 event")
	}
}

// buildTestTimeline exercises every event kind once.
func buildTestTimeline() *Timeline {
	tl := &Timeline{}
	tl.BeginRegion("MAIN_DO80", 0, []RefInfo{
		{Text: "write x[i]", Label: "speculative", Category: "other"},
	})
	tl.Add(Event{Kind: EvSpawn, Time: 4, Proc: 1, Age: 1, Seg: 0, Ref: -1})
	tl.Add(Event{Kind: EvStall, Time: 9, Proc: 2, Age: 2, Seg: 0, Ref: -1, Aux: 3, Cause: CauseOverflow})
	tl.Add(Event{Kind: EvSquash, Time: 20, Dur: 16, Proc: 1, Age: 1, Seg: 0, Ref: 0, Cause: CauseFlowViolation})
	tl.Add(Event{Kind: EvCommit, Time: 40, Dur: 36, Proc: 0, Age: 0, Seg: 0, Ref: -1, Aux: 5})
	tl.EndRegion(40)
	return tl
}

func TestWriteChromeTraceStructure(t *testing.T) {
	var buf bytes.Buffer
	err := WriteChromeTrace(&buf, []NamedTimeline{{Name: "CASE", T: buildTestTimeline()}})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Cat  string          `json:"cat"`
			Ph   string          `json:"ph"`
			Ts   int64           `json:"ts"`
			Dur  int64           `json:"dur"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit == "" {
		t.Fatal("missing displayTimeUnit")
	}
	byPh := map[string]int{}
	cats := map[string]int{}
	for _, e := range doc.TraceEvents {
		byPh[e.Ph]++
		cats[e.Cat]++
		if e.Pid != 1 {
			t.Fatalf("event %q has pid %d, want 1", e.Name, e.Pid)
		}
	}
	if byPh["M"] != 2 {
		t.Fatalf("want 2 metadata events (process_name, thread_name), got %d", byPh["M"])
	}
	// region + squash + commit render as complete slices.
	if byPh["X"] != 3 {
		t.Fatalf("want 3 complete slices, got %d: %v", byPh["X"], byPh)
	}
	for _, cat := range []string{"region", "retired", "squashed", "stall", "dispatch"} {
		if cats[cat] == 0 {
			t.Errorf("no event with cat %q: %v", cat, cats)
		}
	}
	// The squash slice must start at Time-Dur.
	for _, e := range doc.TraceEvents {
		if e.Cat == "squashed" {
			if e.Ts != 4 || e.Dur != 16 {
				t.Fatalf("squash slice ts=%d dur=%d, want ts=4 dur=16", e.Ts, e.Dur)
			}
			var args struct {
				Cause string `json:"cause"`
				Ref   string `json:"ref"`
				Label string `json:"label"`
			}
			if err := json.Unmarshal(e.Args, &args); err != nil {
				t.Fatal(err)
			}
			if args.Cause != "flow-violation" || args.Ref != "write x[i]" || args.Label != "speculative" {
				t.Fatalf("squash args = %+v, want flow-violation on write x[i] (speculative)", args)
			}
		}
	}
}

func TestWriteChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	tls := []NamedTimeline{
		{Name: "HOSE", T: buildTestTimeline()},
		{Name: "CASE", T: buildTestTimeline()},
	}
	if err := WriteChromeTrace(&a, tls); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&b, tls); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same timelines differ byte-wise")
	}
}

func TestWriteChromeTraceDropMarker(t *testing.T) {
	tl := &Timeline{MaxEvents: 1}
	tl.BeginRegion("r", 0, nil)
	tl.Add(Event{Kind: EvSpawn, Ref: -1})
	tl.Add(Event{Kind: EvSpawn, Ref: -1})
	tl.EndRegion(1)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, []NamedTimeline{{Name: "x", T: tl}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("events-dropped")) {
		t.Fatalf("export of a saturated timeline lacks the events-dropped marker:\n%s", buf.String())
	}
}
