package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed calibration. The benchmark runs on a few cores of a shared
// host whose speed drifts by a fifth or more over minutes as other tenants
// come and go, and every timed metric drifts with it. Around each measured
// slice and each set-up the benchmark probes the host with two fixed
// reference kernels that use no repository code, and scales the timings by
// the host's speed then (hostSpeed). A change to the repository's code
// moves the scaled metrics as it moves the raw ones; a slower or faster
// host moves them far less. The raw figures are printed beside them.
//
// The two kernels cover the two ways the host drifts. The compute kernel
// is a chain of integer multiplies: it feels the core's clock and who else
// shares the core, and nothing of memory or the operating system. The
// serving kernel is a net/http client and server on loopback exchanging
// small JSON documents: it feels the network stack, the scheduler and the
// allocator, which the workloads' HTTP round trips lean on. Either one
// alone left some workload's spread near its bound; their geometric mean
// tracked all three.
const (
	// probeLen is how long each kernel runs in one probe.
	probeLen = 50 * time.Millisecond
	// computeRef and serveRef are the kernels' nominal rates over
	// `clients` goroutines, in rounds and in requests per second: about
	// their rates on the 2-core Intel Xeon host the benchmark was tuned on
	// (1.0-1.1e6 and 0.7-1.1e4 there). Scaled metrics read as on a host
	// with those rates.
	computeRef = 1e6
	serveRef   = 1e4
	// roundSteps is how many mixing steps one compute round takes.
	roundSteps = 256
)

// probe is one probe's kernel rates.
type probe struct{ compute, serve float64 }

// hostSpeed is the host's speed over an interval bracketed by two probes,
// relative to the nominal rates: above 1 on a faster host, below 1 on a
// slower one. Rates divide by it and times multiply by it.
func hostSpeed(before, after probe) float64 {
	c := (before.compute + after.compute) / 2 / computeRef
	s := (before.serve + after.serve) / 2 / serveRef
	return math.Sqrt(c * s)
}

// hostProbe runs the reference kernels. It owns the serving kernel's
// loopback server; close stops the server and waits for it.
type hostProbe struct {
	srv    *http.Server
	served chan struct{} // closed once the server has stopped serving
	url    string
	client *http.Client
	body   []byte
	// sink keeps the compute kernel's results live.
	sink atomic.Uint64
}

// serveDoc is the serving kernel's request and response document. The
// server doubles the request's values three times, so a 1.1 KB request
// draws a 6 KB response, about the size of a label response.
type serveDoc struct {
	Name   string   `json:"name"`
	Items  []int    `json:"items"`
	Values []string `json:"values"`
}

// newHostProbe starts the serving kernel's server on loopback.
func newHostProbe() (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("starting the probe server: %w", err)
	}
	p := &hostProbe{
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String() + "/",
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
	}
	p.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var d serveDoc
		if err := json.NewDecoder(r.Body).Decode(&d); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for i := 0; i < 3; i++ {
			d.Values = append(d.Values, d.Values...)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&d) // a failed write shows as a client error
	})}
	go func() {
		defer close(p.served)
		p.srv.Serve(ln) // returns http.ErrServerClosed once close stops it
	}()
	d := serveDoc{Name: "probe"}
	for i := 0; i < 64; i++ {
		d.Items = append(d.Items, i*7919)
		d.Values = append(d.Values, "value-"+strconv.Itoa(i))
	}
	p.body, _ = json.Marshal(&d) // plain struct of strings and ints
	return p, nil
}

// close stops the serving kernel's server and waits until it has.
func (p *hostProbe) close() {
	p.client.CloseIdleConnections()
	p.srv.Close()
	<-p.served
}

// sample runs both kernels, one after the other, each on `clients`
// goroutines (one per core the closed loop uses) for probeLen.
func (p *hostProbe) sample() (probe, error) {
	compute, _ := onClients(func() (int, error) {
		h := p.sink.Load()
		for k := 0; k < 16; k++ {
			h = computeRound(h)
		}
		p.sink.Store(h)
		return 16, nil
	})
	serve, err := onClients(p.roundTrip)
	if err != nil {
		return probe{}, fmt.Errorf("serving probe: %w", err)
	}
	return probe{compute: compute, serve: serve}, nil
}

// onClients calls work on `clients` goroutines until probeLen has passed
// and returns the rounds it reported per second. A goroutine stops at its
// first error, which is returned.
func onClients(work func() (int, error)) (float64, error) {
	var wg sync.WaitGroup
	var rounds [clients]int
	errs := make([]error, clients)
	start := now()
	deadline := start.Add(probeLen)
	for g := range rounds {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for now().Before(deadline) {
				n, err := work()
				if err != nil {
					errs[g] = err
					return
				}
				rounds[g] += n
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for g, r := range rounds {
		if errs[g] != nil {
			return 0, errs[g]
		}
		total += r
	}
	return float64(total) / now().Sub(start).Seconds(), nil
}

// computeRound is one round of the compute kernel: a chain of dependent
// integer multiplies with a data-dependent branch. It touches no memory
// and allocates nothing.
func computeRound(h uint64) uint64 {
	for k := 0; k < roundSteps; k++ {
		h = splitmix(h ^ uint64(k))
		if h&7 == 0 {
			h += uint64(k)
		}
	}
	return h
}

// roundTrip is one round of the serving kernel: post the request document
// and read the whole response.
func (p *hostProbe) roundTrip() (int, error) {
	resp, err := p.client.Post(p.url, "application/json", bytes.NewReader(p.body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %s", resp.Status)
	}
	return 1, nil
}
