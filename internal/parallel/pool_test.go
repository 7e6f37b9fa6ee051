package parallel

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachRunsAll(t *testing.T) {
	var n int64
	ForEach(100, 4, func(i int) { atomic.AddInt64(&n, 1) })
	if n != 100 {
		t.Errorf("ran %d, want 100", n)
	}
}

func TestForEachZero(t *testing.T) {
	ForEach(0, 4, func(i int) { t.Error("should not run") })
	ForEach(-3, 4, func(i int) { t.Error("should not run") })
}

func TestForEachDefaultWorkers(t *testing.T) {
	var n int64
	ForEach(10, 0, func(i int) { atomic.AddInt64(&n, 1) })
	if n != 10 {
		t.Errorf("ran %d", n)
	}
}

func TestMapOrder(t *testing.T) {
	out, err := Map(50, 8, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestMapLowestError: every index runs, and the error returned is the
// lowest failing index's, whatever order the workers finish in.
func TestMapLowestError(t *testing.T) {
	var ran int64
	out, err := Map(50, 8, func(i int) (int, error) {
		atomic.AddInt64(&ran, 1)
		if i%7 == 3 {
			return 0, fmt.Errorf("index %d", i)
		}
		return i, nil
	})
	if ran != 50 {
		t.Errorf("ran %d, want 50", ran)
	}
	if out != nil || err == nil || err.Error() != "index 3" {
		t.Errorf("Map = %v, %v; want nil and the error of index 3", out, err)
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("panic should propagate")
		}
	}()
	ForEach(10, 4, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}

func TestForEachCtxRunsAll(t *testing.T) {
	var n int64
	if err := ForEachCtx(context.Background(), 100, 4, func(i int) { atomic.AddInt64(&n, 1) }); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Errorf("ran %d, want 100", n)
	}
}

func TestForEachCtxCancelStopsEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int64
	// One worker, so indices run strictly one at a time: cancelling inside
	// the first call guarantees no later index starts.
	err := ForEachCtx(ctx, 1000, 1, func(i int) {
		atomic.AddInt64(&started, 1)
		cancel()
	})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if started != 1 {
		t.Errorf("started %d calls after cancel, want 1", started)
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEachCtx(ctx, 10, 4, func(i int) { t.Error("should not run") })
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestForEachCtxPanicStopsAndPropagates(t *testing.T) {
	var ran int64
	defer func() {
		if recover() == nil {
			t.Error("panic should propagate")
		}
		// Single worker: the panic on index 0 must prevent every later index.
		if ran != 1 {
			t.Errorf("ran %d calls after panic, want 1", ran)
		}
	}()
	ForEachCtx(context.Background(), 100, 1, func(i int) {
		atomic.AddInt64(&ran, 1)
		panic("boom")
	})
}
