package main

import (
	"fmt"
	"math"
	"time"

	"refidem/internal/callgraph"
	"refidem/internal/cfg"
	"refidem/internal/dataflow"
	"refidem/internal/deps"
	"refidem/internal/engine"
	"refidem/internal/idem"
	"refidem/internal/ir"
	"refidem/internal/lang"
	"refidem/internal/rfw"
)

// layerTimes holds nanoseconds per layer of the labeling and simulation
// pipeline, as the layer walk measures them by calling each layer's public
// functions directly.
type layerTimes struct {
	parse, finalize, fingerprint               float64
	callgraph, dataflow, cfg, deps, rfw, label float64
	seq, hose, cas, verify                     float64
}

func (a *layerTimes) add(b layerTimes, f float64) {
	a.parse += f * b.parse
	a.finalize += f * b.finalize
	a.fingerprint += f * b.fingerprint
	a.callgraph += f * b.callgraph
	a.dataflow += f * b.dataflow
	a.cfg += f * b.cfg
	a.deps += f * b.deps
	a.rfw += f * b.rfw
	a.label += f * b.label
	a.seq += f * b.seq
	a.hose += f * b.hose
	a.cas += f * b.cas
	a.verify += f * b.verify
}

// labelChildren is the part of idem.LabelProgram its sub-analyses take.
func (a layerTimes) labelChildren() float64 { return a.dataflow + a.cfg + a.deps + a.rfw }

func (a layerTimes) engine() float64 { return a.seq + a.hose + a.cas + a.verify }

// walkCounts are exact counts of the work the walked inputs imply.
type walkCounts struct {
	refs, edges, idem               int64
	simCycles, hoseOv, caseOv, viol int64
	sims                            int64
	logSpeedup                      float64
}

// walker runs the layer walk and logs a span per layer call.
type walker struct {
	log *spanLog
}

// walk times every layer on one input. The program runs through the same
// public functions the service composes: parse (which validates and
// finalizes), a re-Finalize of the walk's own copy, the fingerprint, the
// call graph, the whole-program dataflow, and per region the segment
// graph, dependences and RFW; then idem.LabelProgram on a second parse,
// whose labels must satisfy Theorems 1 and 2; and for simulate inputs the
// three engines and the live-out verification.
func (w *walker) walk(req int, in *input, src string) (layerTimes, walkCounts, error) {
	var lt layerTimes
	var wc walkCounts
	root := w.log.open("walk."+in.kind, req)
	defer w.log.close(root)
	mark := now()
	lap := func(name string, dst *float64) {
		t := now()
		*dst += float64(t.Sub(mark).Nanoseconds())
		w.log.add(name, mark, t, root, req)
		mark = t
	}
	p, err := lang.Parse(src)
	lap("lang.parse", &lt.parse)
	if err != nil {
		return lt, wc, fmt.Errorf("parsing: %w", err)
	}
	for _, r := range p.Regions {
		r.Finalize()
	}
	lap("ir.finalize", &lt.finalize)
	ir.FingerprintOf(p)
	lap("ir.fingerprint", &lt.fingerprint)
	callgraph.Analyze(p)
	lap("callgraph.analyze", &lt.callgraph)
	infos := dataflow.AnalyzeProgram(p)
	lap("dataflow.analyze", &lt.dataflow)
	for _, r := range p.Regions {
		g := cfg.FromRegion(r)
		lap("cfg.build", &lt.cfg)
		da := deps.Analyze(r, g)
		lap("deps.analyze", &lt.deps)
		rfw.Analyze(r, g, infos[r], da)
		lap("rfw.analyze", &lt.rfw)
		wc.edges += int64(len(da.All))
	}
	// Label a fresh parse: the sub-analyses above filled lazily built
	// per-region indexes that LabelProgram would otherwise find ready.
	p, err = lang.Parse(src)
	if err != nil {
		return lt, wc, fmt.Errorf("parsing: %w", err)
	}
	mark = now()
	labs := idem.LabelProgram(p)
	lap("idem.label", &lt.label)
	for _, r := range p.Regions {
		res := labs[r]
		if errs := res.CheckTheorems(); len(errs) > 0 {
			return lt, wc, fmt.Errorf("region %s labels break Theorems 1-2: %v", r.Name, errs[0])
		}
		wc.refs += int64(len(r.Refs))
		for _, ref := range r.Refs {
			if res.Label(ref) == idem.Idempotent {
				wc.idem++
			}
		}
	}
	if in.kind != kindSimulate {
		return lt, wc, nil
	}
	mc := engine.DefaultConfig()
	mc.Processors, mc.SpecCapacity = in.procs, in.capacity
	mark = now()
	seq, err := engine.RunSequential(p, mc)
	lap("engine.seq", &lt.seq)
	if err != nil {
		return lt, wc, fmt.Errorf("sequential run: %w", err)
	}
	hose, err := engine.RunSpeculative(p, labs, mc, engine.HOSE)
	lap("engine.hose", &lt.hose)
	if err != nil {
		return lt, wc, fmt.Errorf("HOSE run: %w", err)
	}
	cas, err := engine.RunSpeculative(p, labs, mc, engine.CASE)
	lap("engine.case", &lt.cas)
	if err != nil {
		return lt, wc, fmt.Errorf("CASE run: %w", err)
	}
	err = engine.LiveOutMismatch(p, labs, seq, hose)
	if err == nil {
		err = engine.LiveOutMismatch(p, labs, seq, cas)
	}
	lap("engine.verify", &lt.verify)
	if err != nil {
		return lt, wc, fmt.Errorf("speculative run disagrees with sequential: %w", err)
	}
	wc.sims = 1
	wc.simCycles = seq.Cycles + hose.Cycles + cas.Cycles
	wc.hoseOv = hose.Stats.Overflows
	wc.caseOv = cas.Stats.Overflows
	wc.viol = hose.Stats.FlowViolations + hose.Stats.ControlViolations + cas.Stats.FlowViolations + cas.Stats.ControlViolations
	wc.logSpeedup = math.Log(float64(seq.Cycles) / float64(cas.Cycles))
	return lt, wc, nil
}

// walkResult aggregates the walk over a fixed prefix of the stream.
type walkResult struct {
	// byKind is the mean layer time per walked input of each request kind.
	byKind map[string]layerTimes
	counts walkCounts
	inputs int64
	// simNs is the engines' host time over the walked simulations, for
	// engine.host_ns_per_sim_cycle.
	simNs float64
}

// walkPrefix walks the first n inputs of the stream twice and reports the
// second pass: the first pays one-time costs (page faults, growing the
// analyses' scratch pools) that a long-running server has long paid. The
// prefix is the same for every run with the seed, so the counts repeat
// exactly.
func walkPrefix(e *env, n int, log *spanLog) (walkResult, error) {
	if _, err := walkOnce(e, n, &spanLog{epoch: log.epoch}); err != nil {
		return walkResult{}, err
	}
	return walkOnce(e, n, log)
}

func walkOnce(e *env, n int, log *spanLog) (walkResult, error) {
	w := &walker{log: log}
	res := walkResult{byKind: map[string]layerTimes{}}
	sums := map[string]layerTimes{}
	seen := map[string]float64{}
	for i := 0; i < n; i++ {
		in, ok := e.walkInput(i)
		if !ok {
			break
		}
		src := in.req.Program
		if in.kind == kindDelta {
			src = e.pool.progs[in.pool].composedSrc
		}
		lt, wc, err := w.walk(i+1, in, src)
		if err != nil {
			return res, fmt.Errorf("layer walk of request %d (%s): %w", i, in.kind, err)
		}
		s := sums[in.kind]
		s.add(lt, 1)
		sums[in.kind] = s
		seen[in.kind]++
		res.simNs += lt.engine() - lt.verify
		c := &res.counts
		res.inputs++
		c.refs += wc.refs
		c.edges += wc.edges
		c.idem += wc.idem
		c.simCycles += wc.simCycles
		c.hoseOv += wc.hoseOv
		c.caseOv += wc.caseOv
		c.viol += wc.viol
		c.sims += wc.sims
		c.logSpeedup += wc.logSpeedup
	}
	for k, s := range sums {
		var m layerTimes
		m.add(s, 1/seen[k])
		res.byKind[k] = m
	}
	return res, nil
}

// spanLog holds exported spans in memory: name, start, end (ns since the
// run's epoch), parent index (-1 for a root) and request id.
type spanLog struct {
	epoch time.Time
	spans []span
}

type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

func (l *spanLog) ns(t time.Time) int64 { return t.Sub(l.epoch).Nanoseconds() }

func (l *spanLog) add(name string, start, end time.Time, parent, req int) int {
	return l.addNs(name, l.ns(start), l.ns(end), parent, req)
}

func (l *spanLog) addNs(name string, start, end int64, parent, req int) int {
	l.spans = append(l.spans, span{Name: name, Start: start, End: end, Parent: parent, Request: req})
	return len(l.spans) - 1
}

// open starts a root span whose end close fills in.
func (l *spanLog) open(name string, req int) int {
	t := l.ns(now())
	return l.addNs(name, t, t, -1, req)
}

func (l *spanLog) close(i int) { l.spans[i].End = l.ns(now()) }
