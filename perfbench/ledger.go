package main

import (
	"fmt"
	"io"
	"sort"

	"refidem/internal/obs"
)

// ledger splits the traced window's mean client latency into per-layer
// self times. Every row is a mean over the joined requests in µs; the
// rows at one level add up to their parent. The top-level rows are
// differences of nested spans, which telescope, so unattributed is only
// the flight recorder's total minus its stages: it checks the join, and
// the client library's own time counts as transport.
type ledger struct {
	requests, unjoined  int
	clientUs, clientP50 float64

	transport, routerHop, handler, codec    float64
	admission, respCache, wait, store, comp float64
	computeOther, unattributed              float64
	// walk is the layer walk's cost attributed to the traced requests
	// (ns per request; see attribute).
	walk layerTimes
}

// attribution scales the layer walk onto one served request.
type attribution struct {
	costs walkResult
	// progMiss is the program-cache miss ratio and relabel the share of
	// delta regions re-labeled, over the traced window: a computed full
	// request pays the labeling pipeline progMiss of the time, a delta
	// relabel of it.
	progMiss, relabel float64
}

// attribute adds the walk's cost of one computed hop to dst. Hops answered
// from the response cache or by joining another request's computation pay
// none of it.
func (a attribution) attribute(dst *layerTimes, kind string, sp obs.Span) {
	if sp.Source != "compute" || sp.Coalesced {
		return
	}
	if kind == kindResend || kind == kindFallback {
		kind = kindLabel
	}
	c, ok := a.costs.byKind[kind]
	if !ok {
		return
	}
	var x layerTimes
	m := a.progMiss
	if kind == kindDelta {
		m = a.relabel // a delta resolves by patching its base: no full parse or fingerprint
	} else {
		x.parse, x.finalize, x.fingerprint = c.parse, c.finalize, c.fingerprint
	}
	x.callgraph, x.dataflow, x.cfg, x.deps, x.rfw, x.label = m*c.callgraph, m*c.dataflow, m*c.cfg, m*c.deps, m*c.rfw, m*c.label
	if kind == kindSimulate {
		x.seq, x.hose, x.cas, x.verify = c.seq, c.hose, c.cas, c.verify
	}
	dst.add(x, 1)
}

// buildLedger joins the traced window's client spans, handler spans and
// flight-recorder spans by request id and trace id.
func buildLedger(tr *tracer, a attribution, clientP50 float64) ledger {
	byID := map[int][]hop{}
	for _, h := range tr.hops {
		byID[h.id] = append(byID[h.id], h)
	}
	var l ledger
	l.clientP50 = clientP50 / 1e3
	var sum ledger
	for id, cs := range tr.clients {
		var routerNs, replicaNs, flightNs int64
		var st [obs.NumStages]int64
		var walk layerTimes
		joined, replicas := true, 0
		for _, h := range byID[id] {
			d := h.end - h.start
			if h.layer == layerRouter {
				routerNs += d
				continue
			}
			replicas++
			replicaNs += d
			sp, ok := tr.flights[flightKey{h.replica, h.traceID}]
			if !ok || h.traceID == 0 {
				joined = false
				break
			}
			flightNs += sp.Total
			for i := range st {
				st[i] += sp.Stages[i]
			}
			a.attribute(&walk, h.kind, sp)
		}
		if !joined || replicas == 0 {
			l.unjoined++
			continue
		}
		outer := replicaNs
		if routerNs > 0 {
			outer = routerNs
			sum.routerHop += float64(routerNs - replicaNs)
		}
		client := cs[1] - cs[0]
		sum.clientUs += float64(client)
		sum.transport += float64(client - outer)
		sum.handler += float64(replicaNs)
		sum.codec += float64(replicaNs - flightNs)
		sum.admission += float64(st[obs.StageAdmission])
		sum.respCache += float64(st[obs.StageRespCache])
		worker := st[obs.StageStoreRead] + st[obs.StageCompute] + st[obs.StageStoreWrite]
		sum.wait += float64(st[obs.StageSingleflight] - worker)
		sum.store += float64(st[obs.StageStoreRead] + st[obs.StageStoreWrite])
		sum.comp += float64(st[obs.StageCompute])
		sum.walk.add(walk, 1)
		l.requests++
	}
	if l.requests == 0 {
		return l
	}
	f := 1 / (1e3 * float64(l.requests)) // ns sums → mean µs
	l.clientUs = sum.clientUs * f
	l.transport = sum.transport * f
	l.routerHop = sum.routerHop * f
	l.handler = sum.handler * f
	l.codec = sum.codec * f
	l.admission = sum.admission * f
	l.respCache = sum.respCache * f
	l.wait = sum.wait * f
	l.store = sum.store * f
	l.comp = sum.comp * f
	l.walk.add(sum.walk, 1/float64(l.requests)) // stays in ns
	l.computeOther = l.comp - (l.walk.label+l.walk.engine())/1e3
	l.unattributed = l.clientUs - (l.transport + l.routerHop + l.codec + l.admission + l.respCache + l.wait + l.store + l.comp)
	return l
}

// print renders the ledger table: each layer's self time and its share of
// the mean client latency. Indented rows break their parent down; the walk
// rows inside a service stage are measured by the layer walk on the same
// inputs, so they estimate, rather than partition, that stage.
func (l ledger) print(w io.Writer, workload string, overheadPct float64) {
	fmt.Fprintf(w, "ledger %s: %d traced requests joined (%d unjoined); client latency mean %.1f us, p50 %.1f us\n",
		workload, l.requests, l.unjoined, l.clientUs, l.clientP50)
	row := func(indent int, name string, us float64) {
		share := 0.0
		if l.clientUs > 0 {
			share = 100 * us / l.clientUs
		}
		fmt.Fprintf(w, "  %-*s%-*s %10.1f us %6.1f%%\n", 2*indent, "", 34-2*indent, name, us, share)
	}
	wk := l.walk
	row(0, "transport.self", l.transport)
	row(0, "cluster.router_hop", l.routerHop)
	row(0, "http.codec_self", l.codec)
	row(0, "service.admission", l.admission)
	row(1, "ir.fingerprint (walk)", wk.fingerprint/1e3)
	row(0, "service.resp_cache", l.respCache)
	row(0, "service.wait", l.wait)
	row(1, "lang.parse (walk)", wk.parse/1e3)
	row(2, "ir.finalize (walk)", wk.finalize/1e3)
	row(0, "service.store", l.store)
	row(0, "service.compute", l.comp)
	row(1, "idem.label (walk)", wk.label/1e3)
	row(2, "dataflow.analyze", wk.dataflow/1e3)
	row(2, "cfg.build", wk.cfg/1e3)
	row(2, "deps.analyze", wk.deps/1e3)
	row(2, "rfw.analyze", wk.rfw/1e3)
	row(2, "idem.self", (wk.label-wk.labelChildren())/1e3)
	row(1, "engine.seq (walk)", wk.seq/1e3)
	row(1, "engine.hose (walk)", wk.hose/1e3)
	row(1, "engine.case (walk)", wk.cas/1e3)
	row(1, "engine.verify (walk)", wk.verify/1e3)
	row(1, "service.compute_other", l.computeOther)
	row(0, "unattributed", l.unattributed)
	fmt.Fprintf(w, "  %-34s %10.1f %%\n", "trace_overhead_pct", overheadPct)
}

// exportSpans turns the first maxExportRequests traced requests into
// spans: the client span, the router and replica handler spans, and the
// replica's flight-recorder span with its stages. The recorder keeps
// stage durations, not timestamps, so stage spans are laid end to end
// from the flight span's start in stage order.
func exportSpans(tr *tracer, log *spanLog) {
	ids := make([]int, 0, len(tr.clients))
	for id := range tr.clients {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if len(ids) > maxExportRequests {
		ids = ids[:maxExportRequests]
	}
	byID := map[int][]hop{}
	for _, h := range tr.hops {
		byID[h.id] = append(byID[h.id], h)
	}
	epochWall := tr.epoch.UnixNano()
	for _, id := range ids {
		cs := tr.clients[id]
		root := log.addNs("client", cs[0], cs[1], -1, id)
		hops := byID[id]
		sort.Slice(hops, func(a, b int) bool { return hops[a].start < hops[b].start })
		parent := root
		for _, h := range hops {
			if h.layer == layerRouter {
				parent = log.addNs("cluster.router", h.start, h.end, root, id)
				continue
			}
			hs := log.addNs("http.handler/"+h.kind, h.start, h.end, parent, id)
			sp, ok := tr.flights[flightKey{h.replica, h.traceID}]
			if !ok {
				continue
			}
			start := sp.Start - epochWall
			svc := log.addNs("service", start, start+sp.Total, hs, id)
			t := start
			for st := obs.Stage(0); st < obs.NumStages; st++ {
				d := sp.Stages[st]
				if st == obs.StageSingleflight {
					// The wait stage includes the worker stages, which follow.
					d -= sp.Stages[obs.StageStoreRead] + sp.Stages[obs.StageCompute] + sp.Stages[obs.StageStoreWrite]
				}
				if d > 0 {
					log.addNs("service."+st.String(), t, t+d, svc, id)
					t += d
				}
			}
		}
	}
}

// maxExportRequests bounds the traced requests written to the span file.
const maxExportRequests = 2000
