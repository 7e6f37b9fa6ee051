// Package parallel provides the bounded worker pool the experiment
// harness uses to fan simulator runs out across host cores. Results are
// collected in submission order, so experiment output stays deterministic
// regardless of scheduling.
package parallel

import (
	"context"
	"runtime"
	"sync"
)

// ForEach runs fn(i) for i in [0, n) on up to workers goroutines
// (workers <= 0 selects GOMAXPROCS). It blocks until all calls complete.
// The first panic, if any, stops further indices and is re-raised on the
// caller's goroutine.
func ForEach(n, workers int, fn func(i int)) {
	ForEachCtx(context.Background(), n, workers, fn)
}

// Map applies fn to each index and returns the results in order. Every
// index runs; if any fails, Map returns the error of the lowest failing
// index and no results.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(n, workers, func(i int) {
		out[i], errs[i] = fn(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ForEachCtx is ForEach with early cancellation: once ctx is done or any
// fn panics, no further indices are started (in-flight calls run to
// completion — fn cannot be preempted). It blocks until every started
// call returns, then re-raises the first panic if there was one, and
// otherwise returns ctx.Err() (nil when all n calls ran).
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		next     int
		stopped  bool
		panicked any
		once     sync.Once
	)
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				if stopped || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				func() {
					defer func() {
						if r := recover(); r != nil {
							once.Do(func() { panicked = r })
							mu.Lock()
							stopped = true
							mu.Unlock()
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return ctx.Err()
}
