package service

import (
	"bytes"
	"context"
	"testing"
	"time"

	"refidem/internal/store"
)

// chaosRequests is the request mix each chaos iteration replays: both ops,
// parameter variants, multiple programs.
var chaosRequests = []Request{
	{Op: OpLabel, Example: "fig1"},
	{Op: OpLabel, Example: "fig2", Deps: true},
	{Op: OpSimulate, Example: "fig3", Procs: 4},
}

// TestChaosWall is the fault-injection wall: 240 iterations (48 per fault
// kind) of serve → fault → shutdown → heal → restart, asserting after every
// single one that
//
//   - no request ever fails or panics because the store faulted,
//   - every response — faulted, degraded, or restarted — is
//     byte-identical to the cold-computed reference, so no quarantined or
//     corrupt record is ever served,
//   - the restart recovery scan never invents corrupt records from clean
//     shutdowns of non-corrupting faults.
func TestChaosWall(t *testing.T) {
	// Cold reference: one memory-only server, no store in the path.
	ref := New(testConfig())
	ctx := context.Background()
	want := make([][]byte, len(chaosRequests))
	for i, r := range chaosRequests {
		var err error
		if want[i], err = ref.Do(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	ref.Close()

	kinds := []store.FaultKind{
		store.FaultTornWrite,
		store.FaultENOSPC,
		store.FaultRenameFail,
		store.FaultCrash,
		store.FaultReadCorrupt,
	}
	const itersPerKind = 48 // 5 kinds × 48 = 240 fault-injected iterations
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			var fired int64
			for i := 0; i < itersPerKind; i++ {
				fired += chaosIteration(t, kind, i, want)
			}
			if fired == 0 {
				t.Fatalf("%s: no fault ever triggered across %d iterations — the wall is not testing anything", kind, itersPerKind)
			}
		})
	}
}

// chaosIteration runs one serve/fault/restart cycle and returns how many
// faults actually fired.
func chaosIteration(t *testing.T, kind store.FaultKind, iter int, want [][]byte) int64 {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()
	f := store.NewFaultFS()
	st, _, err := store.OpenWithFaults(dir, f)
	if err != nil {
		t.Fatalf("iter %d: open: %v", iter, err)
	}

	cfg := storeTestConfig(t, st)
	cfg.StoreProbeInterval = time.Hour // recovery belongs to the restart, not a mid-test probe
	s := New(cfg)
	// Vary the trigger point so the fault lands in different file
	// operations (temp write, fsync, rename, read) across iterations.
	f.Arm(kind, 1+iter%7)
	for j, r := range chaosRequests {
		got, err := s.Do(ctx, r)
		if err != nil {
			t.Fatalf("iter %d req %d (%s): request failed under fault: %v", iter, j, kind, err)
		}
		if !bytes.Equal(got, want[j]) {
			t.Fatalf("iter %d req %d (%s): faulted response differs from cold-computed bytes", iter, j, kind)
		}
	}
	s.Close() // drains the write-behind queue through the (possibly faulty) backend
	fired := f.Fired()
	f.Heal()

	// "Restart": a clean process reopens the directory. The recovery scan
	// quarantines whatever the fault corrupted; nothing corrupt is served.
	st2, stats, err := store.Open(dir)
	if err != nil {
		t.Fatalf("iter %d (%s): reopen after heal: %v", iter, kind, err)
	}
	if kind != store.FaultTornWrite && kind != store.FaultCrash && stats.Quarantined != 0 {
		// ENOSPC/rename/read faults fail writes cleanly or corrupt only
		// reads; they must never leave corrupt records on disk.
		t.Fatalf("iter %d (%s): recovery quarantined %d records from a non-corrupting fault", iter, kind, stats.Quarantined)
	}
	s2 := New(storeTestConfig(t, st2))
	for j, r := range chaosRequests {
		got, err := s2.Do(ctx, r)
		if err != nil {
			t.Fatalf("iter %d req %d (%s): post-restart request failed: %v", iter, j, kind, err)
		}
		if !bytes.Equal(got, want[j]) {
			t.Fatalf("iter %d req %d (%s): post-restart response differs from cold-computed bytes", iter, j, kind)
		}
	}
	if s2.StoreStateNow() == StoreDisabled {
		t.Fatalf("iter %d (%s): restarted server lost its store", iter, kind)
	}
	s2.Close()
	return fired
}
