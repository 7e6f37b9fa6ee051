package main

import "time"

// now is the benchmark's one wall-clock read. Every duration it reports is
// the difference of two now() values, which Go takes from the monotonic
// clock.
func now() time.Time {
	return time.Now() //detlint:allow time-now (the benchmark exists to measure wall-clock latency)
}

// splitmix is the SplitMix64 finalizer: a bijective 64-bit mixer.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// mix derives a well-spread value from the run seed, a stream domain and
// positions in it, so every input of a workload is a pure function of
// (seed, index): two clients taking indices in any interleaving send the
// same requests.
func mix(seed int64, domain uint64, parts ...uint64) uint64 {
	x := splitmix(uint64(seed) ^ splitmix(domain))
	for _, p := range parts {
		x = splitmix(x ^ p)
	}
	return x
}

// unit maps a mixed value to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Stream domains keep the inputs of different purposes independent.
const (
	domLabel uint64 = iota + 1
	domWarm
	domSimCap
	domPool
	domZipf
	domOp
)
