package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"refidem/internal/api"
	"refidem/internal/service"
)

// Workload names.
const (
	wlLabelCold     = "label-cold"
	wlSimulatePaper = "simulate-paper"
	wlMixedZipf     = "mixed-zipf"
)

var workloadNames = []string{wlLabelCold, wlSimulatePaper, wlMixedZipf}

// Stream sizing.
const (
	// coldChunk is how many label-cold inputs are made ready before each
	// slice of a measured window: about twice what one slice uses on 2
	// cores. A slice that uses them up ends early and says so.
	coldChunk = 2000
	// simulate-paper never repeats a request, so its stream holds enough
	// points for this many requests per second of run time (about twice
	// the rate measured on 2 cores).
	simulatePerSecond = 1000
	// kindResend tags mixed-zipf's recovery resend of a base program, and
	// kindFallback the full label of a composed program when the resend
	// did not help.
	kindResend   = "resend"
	kindFallback = "fallback"
	// label-cold warms up with this many requests: enough to fill a
	// replica's response cache (2048 entries), fragment cache (4096
	// regions), program cache (512) and base registry (256).
	warmColdRequests = 4096
	// mixed-zipf warms up with three requests for each of this many
	// programs: about the two replicas' combined response-cache entries
	// (2 × 2048), and more than their program caches and base registries.
	warmPrograms = 1400
	// Simulate-paper warm-up runs each loop at this capacity, above every
	// stratum of the measured stream.
	warmCapacity = 1 << 14
	// Every deltaSampleEvery-th request, if it is a delta, keeps its
	// response (one per program, at most maxSamples) to compare byte for
	// byte with a full label of the composed program after the run.
	deltaSampleEvery = 61
	maxSamples       = 32
)

// env is a workload set up and ready to run: servers booted, inputs
// generated, caches warmed.
type env struct {
	seed int64
	st   *stack
	cold *coldStream // label-cold
	sim  *simStream  // simulate-paper
	pool *mixedPool  // mixed-zipf
	// head is the stream's first walkInputs inputs, for the layer walk
	// (label-cold drops inputs once they are sent).
	head []input

	// resends counts deltas that needed the base resent; fallbacks those
	// then answered by the full composed program.
	resends, fallbacks atomic.Int64

	sampleMu sync.Mutex
	samples  map[int][]byte
}

// setupEnv boots the workload's servers, generates its inputs from the
// seed and warms it up.
func setupEnv(workload string, seed int64, seconds int, repo string) (*env, error) {
	e := &env{seed: seed, samples: map[int][]byte{}}
	var err error
	switch workload {
	case wlLabelCold:
		e.cold = newColdStream(seed, domLabel)
		e.cold.fill(0, coldChunk)
		e.head = append([]input(nil), e.cold.buf[:walkInputs]...)
		e.st, err = bootStack(1, false)
		if err == nil {
			err = e.warmLabelCold()
		}
	case wlSimulatePaper:
		var gold *goldenFigures
		if gold, err = loadGolden(repo); err != nil {
			return nil, err
		}
		var loops []paperLoop
		if loops, err = loadPaperLoops(); err != nil {
			return nil, err
		}
		if e.sim, err = newSimStream(seed, max(500, seconds*simulatePerSecond), loops, gold); err != nil {
			return nil, err
		}
		e.st, err = bootStack(1, false)
		if err == nil {
			err = e.warmSimulate()
		}
	case wlMixedZipf:
		if e.pool, err = newMixedPool(); err != nil {
			return nil, err
		}
		e.st, err = bootStack(2, true)
		if err == nil {
			err = e.warmMixed()
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("setting up %s: %w", workload, err)
	}
	return e, nil
}

func (e *env) close() {
	if e.st != nil {
		e.st.close()
	}
}

// send does one request during warm-up and checks its response.
func (e *env) send(in *input) error {
	body, err := e.do(context.Background(), -1, in)
	if err == nil {
		err = checkResponse(in, body)
	}
	return err
}

// warmLabelCold labels programs drawn from a stream disjoint from the
// measured one until the response, program and fragment caches are full,
// so the window starts in the steady state of a long-running server.
func (e *env) warmLabelCold() error {
	warm := labelColdInputs(e.seed, domWarm, warmColdRequests)
	return e.warmConcurrently(len(warm), func(j int) *input { return &warm[j] })
}

// warmConcurrently sends inputs 0..n-1 from genWorkers goroutines.
func (e *env) warmConcurrently(n int, in func(j int) *input) error {
	var next atomic.Int64
	errs := make([]error, genWorkers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := int(next.Add(1) - 1); j < n; j = int(next.Add(1) - 1) {
				if err := e.send(in(j)); err != nil {
					errs[w] = fmt.Errorf("warm-up request %d: %w", j, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// warmSimulate labels each paper loop once (so the program cache answers
// the analysis from then on) and simulates it once on a machine outside
// the measured stream.
func (e *env) warmSimulate() error {
	for _, l := range e.sim.loops {
		label := input{kind: kindLabel, req: api.Request{Op: api.OpLabel, Program: l.spec.Src}, want: l.shape}
		sim := input{kind: kindSimulate, req: api.Request{Op: api.OpSimulate, Program: l.spec.Src, Capacity: warmCapacity},
			want: l.shape, procs: paperProcs, capacity: warmCapacity}
		for _, in := range []*input{&label, &sim} {
			if err := e.send(in); err != nil {
				return fmt.Errorf("warm-up %s of %s: %w", in.kind, l.spec, err)
			}
		}
	}
	return nil
}

// warmMixed fills the replicas' caches the way a long-running deployment
// holds them: a label, a simulate and a delta for each of the warmPrograms
// most popular programs, least popular first, so the head is the most
// recently used. The workload's own mix would take tens of thousands of
// requests to reach that far into the Zipf tail.
func (e *env) warmMixed() error {
	kinds := []string{kindLabel, kindSimulate, kindDelta}
	return e.warmConcurrently(len(kinds)*warmPrograms, func(j int) *input {
		in := e.pool.request(warmPrograms-1-j/len(kinds), kinds[j%len(kinds)])
		return &in
	})
}

// input is request i of the workload's stream (false if it is not ready).
func (e *env) input(i int) (*input, bool) {
	switch {
	case e.pool != nil:
		in := e.pool.input(e.seed, i)
		return &in, true
	case e.sim != nil:
		if i >= len(e.sim.points) {
			return nil, false
		}
		in := e.sim.input(i)
		return &in, true
	default:
		return e.cold.input(i)
	}
}

// walkInput is request i of the stream for the layer walk, which covers
// the first walkInputs requests after they were sent.
func (e *env) walkInput(i int) (*input, bool) {
	if e.cold != nil {
		if i >= len(e.head) {
			return nil, false
		}
		return &e.head[i], true
	}
	return e.input(i)
}

// refill makes label-cold's next chunk ready, from stream index next on.
func (e *env) refill(next int) {
	if e.cold != nil {
		e.cold.fill(next, coldChunk)
	}
}

// do sends logical request i (-1 during warm-up). A delta whose base the
// owner no longer holds (404) is recovered as documented: resend the full
// base program, which registers it, then retry the delta.
func (e *env) do(ctx context.Context, i int, in *input) ([]byte, error) {
	c := e.st.client
	fellBack := false
	body, err := c.Do(tagged(ctx, in.kind), in.req)
	if err != nil && in.kind == kindDelta && errors.Is(err, api.ErrUnknownBase) {
		pp := &e.pool.progs[in.pool]
		e.resends.Add(1)
		var base []byte
		if base, err = c.Do(tagged(ctx, kindResend), api.Request{Op: api.OpLabel, Program: pp.src}); err == nil {
			if err = checkLabel(pp.shape, base); err == nil {
				body, err = c.Do(tagged(ctx, kindDelta), in.req)
			}
		}
		if err != nil && errors.Is(err, api.ErrUnknownBase) {
			// The resend did not re-register the base: a replica answers a
			// repeated full label from its response cache without resolving
			// the program, and bounded-load placement may send the resend
			// to another replica than the delta's owner. The client's last
			// resort is the full composed program, whose label the delta
			// response equals byte for byte.
			e.fallbacks.Add(1)
			body, err = c.Do(tagged(ctx, kindFallback), api.Request{Op: api.OpLabel, Program: pp.composedSrc})
			fellBack = true
		}
	}
	if err != nil {
		return nil, err
	}
	if in.kind == kindDelta && !fellBack && i >= 0 && i%deltaSampleEvery == 0 {
		e.sampleMu.Lock()
		if _, ok := e.samples[in.pool]; !ok && len(e.samples) < maxSamples {
			e.samples[in.pool] = body
		}
		e.sampleMu.Unlock()
	}
	return body, nil
}

// verifySamples compares each sampled delta response with a full label of
// its composed program, computed by a fresh server outside the measured
// deployment.
func (e *env) verifySamples() (int, error) {
	if len(e.samples) == 0 {
		return 0, nil
	}
	ref := service.New(serverConfig())
	defer ref.Close()
	keys := make([]int, 0, len(e.samples))
	for k := range e.samples {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		pp := &e.pool.progs[k]
		want, err := ref.Do(context.Background(), api.Request{Op: api.OpLabel, Program: pp.composedSrc})
		if err != nil {
			return 0, fmt.Errorf("reference label of composed pool program %d: %w", k, err)
		}
		if !bytes.Equal(e.samples[k], want) {
			return 0, fmt.Errorf("delta response for pool program %d differs from a full label of the composed program", k)
		}
	}
	return len(keys), nil
}
