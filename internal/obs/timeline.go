package obs

// The speculation timeline: a bounded event log the engine fills while it
// simulates (engine.Config.Timeline), exported as Chrome trace-event JSON
// so Perfetto and chrome://tracing can render the machine's speculation
// behaviour — which segments ran where, what got squashed and why, where
// speculative storage overflowed. Timestamps are simulated cycles (the
// export declares one trace microsecond per cycle); nothing here reads a
// clock, so a timeline-carrying run is as deterministic as the engine.

import (
	"encoding/json"
	"io"
	"strconv"
)

// EventKind classifies one timeline event.
type EventKind uint8

const (
	// EvSpawn: a segment instance was dispatched to a processor.
	EvSpawn EventKind = iota
	// EvCommit: the oldest instance retired and committed its buffer.
	EvCommit
	// EvSquash: an instance's execution was thrown away (see Cause).
	EvSquash
	// EvStall: an instance parked on speculative-storage overflow.
	EvStall
)

// String names the kind as rendered in the Chrome trace.
func (k EventKind) String() string {
	switch k {
	case EvSpawn:
		return "spawn"
	case EvCommit:
		return "commit"
	case EvSquash:
		return "squash"
	case EvStall:
		return "overflow-stall"
	}
	return "unknown"
}

// Cause says why a squash (or stall) happened.
type Cause uint8

const (
	// CauseNone: the event carries no cause.
	CauseNone Cause = iota
	// CauseFlowViolation: a write found a premature read in a younger
	// segment (the squashed work read a stale value).
	CauseFlowViolation
	// CauseControlViolation: the speculatively spawned successor was not
	// the segment's actual successor.
	CauseControlViolation
	// CauseEarlyExitRevoke: a retired early-exit segment revoked the
	// younger speculation that outlived it.
	CauseEarlyExitRevoke
	// CauseOverflow: speculative storage ran out of entries.
	CauseOverflow
)

// String names the cause as rendered in traces and attribution tables.
func (c Cause) String() string {
	switch c {
	case CauseFlowViolation:
		return "flow-violation"
	case CauseControlViolation:
		return "control-violation"
	case CauseEarlyExitRevoke:
		return "early-exit-revoke"
	case CauseOverflow:
		return "overflow"
	}
	return "none"
}

// RefInfo describes one region reference for attribution: its rendered
// text and the idempotency labeling that routed it.
type RefInfo struct {
	Text     string
	Label    string
	Category string
}

// Event is one timeline entry. Times and durations are simulated cycles.
type Event struct {
	Kind EventKind
	// Time is when the event happened; for EvCommit and EvSquash it is
	// the end of the execution and Dur reaches back to its dispatch.
	Time int64
	Dur  int64
	Proc int32
	Age  int32
	Seg  int32
	// Ref is the dense region-local ID of the reference involved (the
	// violating writer for flow-violation squashes), -1 when no single
	// reference caused the event.
	Ref int32
	// Region indexes Timeline.Regions (stamped by Add).
	Region int32
	// Aux carries a per-kind extra: committed entries (EvCommit) or
	// buffer occupancy (EvStall).
	Aux   int64
	Cause Cause
}

// Region is one executed region's track in the timeline: its name, its
// cycle extent, and the reference table events attribute against.
type Region struct {
	Name  string
	Start int64
	End   int64
	Refs  []RefInfo
}

// Timeline accumulates one run's speculation events. It is not safe for
// concurrent use: attach one Timeline to one engine run at a time.
type Timeline struct {
	// MaxEvents bounds the event log (<= 0 selects 1<<18); events past
	// the bound are counted in Dropped instead of stored.
	MaxEvents int
	Events    []Event
	Regions   []Region
	Dropped   int64
	cur       int32
}

// BeginRegion opens a region track; subsequent events attribute against
// refs (indexed by dense region-local ref ID).
func (t *Timeline) BeginRegion(name string, start int64, refs []RefInfo) {
	t.Regions = append(t.Regions, Region{Name: name, Start: start, End: -1, Refs: refs})
	t.cur = int32(len(t.Regions) - 1)
}

// EndRegion closes the currently open region track.
func (t *Timeline) EndRegion(end int64) {
	if len(t.Regions) > 0 {
		t.Regions[t.cur].End = end
	}
}

// Add appends one event, stamping it with the open region. Full logs
// count drops instead of growing (the cap keeps a runaway simulation
// from holding the process's memory hostage).
func (t *Timeline) Add(e Event) {
	max := t.MaxEvents
	if max <= 0 {
		max = 1 << 18
	}
	if len(t.Events) >= max {
		t.Dropped++
		return
	}
	e.Region = t.cur
	t.Events = append(t.Events, e)
}

// RefInfo resolves an event's reference against its region table.
func (t *Timeline) RefInfo(e *Event) (RefInfo, bool) {
	if e.Ref < 0 || int(e.Region) >= len(t.Regions) {
		return RefInfo{}, false
	}
	refs := t.Regions[e.Region].Refs
	if int(e.Ref) >= len(refs) {
		return RefInfo{}, false
	}
	return refs[e.Ref], true
}

// NamedTimeline pairs a timeline with the process-track name it renders
// under in the Chrome trace (one per execution mode, typically).
type NamedTimeline struct {
	Name string
	T    *Timeline
}

// chromeEvent is one trace-event JSON object. Field order is fixed by
// the struct, so the export is byte-deterministic given the events.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	Ts   int64       `json:"ts"`
	Dur  int64       `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	S    string      `json:"s,omitempty"`
	Args *chromeArgs `json:"args,omitempty"`
}

// chromeArgs carries the per-event detail pane.
type chromeArgs struct {
	Name      string `json:"name,omitempty"`
	Region    string `json:"region,omitempty"`
	Age       int64  `json:"age,omitempty"`
	Cause     string `json:"cause,omitempty"`
	Ref       string `json:"ref,omitempty"`
	Label     string `json:"label,omitempty"`
	Category  string `json:"category,omitempty"`
	Entries   int64  `json:"entries,omitempty"`
	Occupancy int64  `json:"occupancy,omitempty"`
	Dropped   int64  `json:"dropped,omitempty"`
}

// chromeDoc is the JSON object format of the trace-event spec: Perfetto
// and chrome://tracing both load it directly.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// regionsTid is the synthetic thread each process uses for its region
// track, placed past any plausible processor index.
const regionsTid = 1 << 20

// WriteChromeTrace renders the timelines as one Chrome trace-event JSON
// document: each timeline becomes a process (pid 1..n) whose threads are
// the simulated processors, segment executions render as complete ("X")
// slices — committed under cat "retired", discarded under "squashed" —
// and spawns and stalls render as instants. One trace microsecond equals
// one simulated cycle.
func WriteChromeTrace(w io.Writer, timelines []NamedTimeline) error {
	doc := chromeDoc{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	for i, nt := range timelines {
		pid := i + 1
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: &chromeArgs{Name: nt.Name},
		}, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: regionsTid,
			Args: &chromeArgs{Name: "regions"},
		})
		tl := nt.T
		if tl == nil {
			continue
		}
		for ri := range tl.Regions {
			r := &tl.Regions[ri]
			end := r.End
			if end < r.Start {
				end = r.Start
			}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: r.Name, Cat: "region", Ph: "X",
				Ts: r.Start, Dur: end - r.Start, Pid: pid, Tid: regionsTid,
			})
		}
		for ei := range tl.Events {
			e := &tl.Events[ei]
			ce := chromeEvent{Pid: pid, Tid: int(e.Proc)}
			args := &chromeArgs{Age: int64(e.Age)}
			if int(e.Region) < len(tl.Regions) {
				args.Region = tl.Regions[e.Region].Name
			}
			if info, ok := tl.RefInfo(e); ok {
				args.Ref = info.Text
				args.Label = info.Label
				args.Category = info.Category
			}
			switch e.Kind {
			case EvCommit, EvSquash:
				ce.Ph = "X"
				ce.Ts = e.Time - e.Dur
				ce.Dur = e.Dur
				ce.Name = "seg " + strconv.Itoa(int(e.Seg)) + " age " + strconv.Itoa(int(e.Age))
				if e.Kind == EvCommit {
					ce.Cat = "retired"
					args.Entries = e.Aux
				} else {
					ce.Cat = "squashed"
					args.Cause = e.Cause.String()
				}
			case EvStall:
				ce.Ph, ce.S = "i", "t"
				ce.Ts = e.Time
				ce.Name = e.Kind.String()
				ce.Cat = "stall"
				args.Cause = e.Cause.String()
				args.Occupancy = e.Aux
			default: // EvSpawn
				ce.Ph, ce.S = "i", "t"
				ce.Ts = e.Time
				ce.Name = e.Kind.String()
				ce.Cat = "dispatch"
			}
			ce.Args = args
			doc.TraceEvents = append(doc.TraceEvents, ce)
		}
		if tl.Dropped > 0 {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "events-dropped", Ph: "i", S: "p", Pid: pid, Tid: regionsTid,
				Args: &chromeArgs{Dropped: tl.Dropped},
			})
		}
	}
	enc, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(enc, '\n'))
	return err
}
