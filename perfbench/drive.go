package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// driver runs a closed loop: each of its clients sends the next request
// of the stream only after the previous one has been answered and checked.
type driver struct {
	clients int
	// input returns request i of the stream (false once the stream's
	// pre-generated inputs are used up).
	input func(i int) (*input, bool)
	// do sends logical request i, including any recovery resends, and
	// returns the final response.
	do    func(ctx context.Context, i int, in *input) ([]byte, error)
	check func(in *input, body []byte) error
	// kept holds the responses of the first len(kept) requests, for the
	// digest and the exact per-request counts.
	kept [][]byte
	// tr, when its tracing flag is on, receives client spans.
	tr *tracer
	// host probes the host's speed between measured slices.
	host *hostProbe
	// next is the next request index; successive windows continue the
	// stream, so label-cold never repeats a program.
	next atomic.Int64
}

// window is one timed run of the closed loop.
type window struct {
	lats      []int64 // ns per successful request, sorted
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
	exhausted bool
}

type clientResult struct {
	lats      []int64
	attempted int
	failed    int
	err       error
	// missing is the first request index the stream did not have ready
	// (-1 if none).
	missing int
}

// run drives the clients for d. Each client stops taking new requests once
// d has passed; the window ends when the last one has been answered.
func (dr *driver) run(d time.Duration) window {
	start := now()
	deadline := start.Add(d)
	per := make([]clientResult, dr.clients)
	var wg sync.WaitGroup
	for c := 0; c < dr.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = dr.client(deadline)
		}(c)
	}
	wg.Wait()
	w := window{elapsed: now().Sub(start)}
	missing := -1
	for _, r := range per {
		w.add(window{lats: r.lats, attempted: r.attempted, failed: r.failed, firstErr: r.err})
		if r.missing >= 0 && (missing < 0 || r.missing < missing) {
			missing = r.missing
		}
	}
	if missing >= 0 {
		// Every index below the first missing one was sent; resume there
		// once the stream has more ready.
		w.exhausted = true
		dr.next.Store(int64(missing))
	}
	sort.Slice(w.lats, func(a, b int) bool { return w.lats[a] < w.lats[b] })
	return w
}

// add merges o into w.
func (w *window) add(o window) {
	w.lats = append(w.lats, o.lats...)
	w.attempted += o.attempted
	w.failed += o.failed
	w.elapsed += o.elapsed
	w.exhausted = w.exhausted || o.exhausted
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
}

func (dr *driver) client(deadline time.Time) clientResult {
	r := clientResult{missing: -1}
	for now().Before(deadline) {
		i := int(dr.next.Add(1) - 1)
		in, ok := dr.input(i)
		if !ok {
			r.missing = i
			return r
		}
		traced := dr.tr != nil && dr.tr.on.Load()
		ctx := context.Background()
		if traced {
			ctx = context.WithValue(ctx, tagKey{}, tag{id: i + 1, kind: in.kind})
		}
		t0 := now()
		body, err := dr.do(ctx, i, in)
		t1 := now()
		if err == nil {
			err = dr.check(in, body)
		}
		r.attempted++
		if err != nil {
			r.failed++
			if r.err == nil {
				r.err = fmt.Errorf("request %d (%s): %w", i, in.kind, err)
			}
			continue
		}
		r.lats = append(r.lats, t1.Sub(t0).Nanoseconds())
		if i < len(dr.kept) {
			dr.kept[i] = body
		}
		if traced {
			dr.tr.client(i+1, t0.Sub(dr.tr.epoch).Nanoseconds(), t1.Sub(dr.tr.epoch).Nanoseconds())
			if r.attempted%harvestEvery == 0 {
				dr.tr.harvest()
			}
		}
	}
	return r
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// procStats is the process's resource use at one moment, or between two.
type procStats struct {
	cpu      time.Duration // user + system
	allocs   uint64        // cumulative heap bytes allocated
	gcCPU    float64       // cumulative GC CPU seconds (runtime estimate)
	totalCPU float64       // cumulative CPU seconds the runtime accounts
}

func (p procStats) minus(o procStats) procStats {
	return procStats{cpu: p.cpu - o.cpu, allocs: p.allocs - o.allocs, gcCPU: p.gcCPU - o.gcCPU, totalCPU: p.totalCPU - o.totalCPU}
}

func (p procStats) plus(o procStats) procStats {
	return procStats{cpu: p.cpu + o.cpu, allocs: p.allocs + o.allocs, gcCPU: p.gcCPU + o.gcCPU, totalCPU: p.totalCPU + o.totalCPU}
}

var procSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(procSamples))
	copy(s, procSamples)
	metrics.Read(s)
	return procStats{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs:   s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// sliceLen is the length of one slice of a measured window. Between
// slices the clients stop, label-cold's next chunk of inputs is
// generated, and the heap is settled; none of that is measured.
const sliceLen = time.Second

// measurement is a measured window: its slices merged, plus per-slice
// throughput, CPU cost and latency quantiles, whose medians resist the
// seconds-long slowdowns a shared host inflicts on a run.
type measurement struct {
	window
	// Per slice of at least half sliceLen: responses per second, CPU ms
	// per response, the p50 and p99 latency in ms, and the host's speed
	// (hostSpeed) around the slice. All but speed are raw.
	rps, cpuMs, p50, p99, speed []float64
	// peakMB is, per kept slice, the highest heap-object MB sampled in it.
	peakMB []float64
	// proc is the process's resource use summed over the slices.
	proc procStats
}

// measure drives the closed loop for d of slices. The host's speed is
// probed before each slice, once the heap has settled, and after the last.
func measure(e *env, dr *driver, d time.Duration) (measurement, error) {
	var m measurement
	var probes []probe // probes[k] precedes slice k; the last follows the last slice
	var kept []int     // the slice index of each slice kept for the medians
	for m.elapsed < d {
		e.refill(int(dr.next.Load()))
		settle()
		pr, err := dr.host.sample()
		if err != nil {
			return m, err
		}
		probes = append(probes, pr)
		hp := startPeak()
		p0 := readProc()
		w := dr.run(min(sliceLen, d-m.elapsed))
		p := readProc().minus(p0)
		peak := hp.finish()
		m.proc = m.proc.plus(p)
		if n := len(w.lats); n > 0 && w.elapsed >= sliceLen/2 {
			m.rps = append(m.rps, float64(n)/w.elapsed.Seconds())
			m.cpuMs = append(m.cpuMs, float64(p.cpu.Nanoseconds())/1e6/float64(n))
			m.p50 = append(m.p50, quantile(w.lats, 0.50)/1e6)
			m.p99 = append(m.p99, quantile(w.lats, 0.99)/1e6)
			m.peakMB = append(m.peakMB, float64(peak)/(1<<20))
			kept = append(kept, len(probes)-1)
		}
		m.add(w)
		if w.exhausted && w.attempted == 0 {
			break // the stream has nothing more
		}
	}
	settle()
	pr, err := dr.host.sample()
	if err != nil {
		return m, err
	}
	probes = append(probes, pr)
	for _, k := range kept {
		m.speed = append(m.speed, hostSpeed(probes[k], probes[k+1]))
	}
	sort.Slice(m.lats, func(a, b int) bool { return m.lats[a] < m.lats[b] })
	return m, nil
}

// peakSampler samples the live heap-object bytes every 5 ms.
type peakSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startPeak() *peakSampler {
	p := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			p.peak = max(p.peak, s[0].Value.Uint64())
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the sampler and returns the peak.
func (p *peakSampler) finish() uint64 {
	close(p.stop)
	<-p.done
	return p.peak
}

// settle collects garbage left by set-up or input generation, so every
// slice starts from the same heap.
func settle() { runtime.GC() }
