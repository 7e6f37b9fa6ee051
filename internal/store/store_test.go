package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"refidem/internal/ir"
)

func testKey(i int) Key {
	var fp ir.Fingerprint
	fp[0] = byte(i)
	fp[1] = byte(i >> 8)
	return Key{
		Fingerprint: fp,
		Op:          "label",
		Params:      fmt.Sprintf("deps=false;procs=%d;cap=0", i%3),
		Version:     "v1",
	}
}

func mustOpen(t *testing.T, dir string) (*FS, RecoveryStats) {
	t.Helper()
	s, stats, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, stats
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, stats := mustOpen(t, dir)
	if stats != (RecoveryStats{}) {
		t.Errorf("fresh store recovery stats = %+v, want zero", stats)
	}
	k := testKey(1)
	if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on empty store: err = %v, want ErrNotFound", err)
	}
	payload := []byte(`{"op": "label"}` + "\n")
	if err := s.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}

	// Overwrite is atomic replace.
	payload2 := []byte("second version\n")
	if err := s.Put(k, payload2); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(k); !bytes.Equal(got, payload2) {
		t.Fatalf("after overwrite Get = %q, want %q", got, payload2)
	}

	// A second open of the same directory sees the record.
	s2, stats2 := mustOpen(t, dir)
	if stats2.Scanned != 1 || stats2.Valid != 1 || stats2.Quarantined != 0 {
		t.Errorf("reopen stats = %+v, want 1 scanned, 1 valid", stats2)
	}
	if got, err := s2.Get(k); err != nil || !bytes.Equal(got, payload2) {
		t.Fatalf("reopened Get = %q, %v", got, err)
	}
}

func TestKeyEncodeDecodeRoundTrip(t *testing.T) {
	k := Key{Op: "simulate", Params: "deps=true;procs=8;cap=64", Version: "refidem/v6"}
	for i := range k.Fingerprint {
		k.Fingerprint[i] = byte(37 * i)
	}
	got, err := DecodeKey(k.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != k {
		t.Fatalf("round trip = %+v, want %+v", got, k)
	}
	// Empty params and version survive too.
	k2 := Key{Op: "label"}
	if got, err := DecodeKey(k2.Encode()); err != nil || got != k2 {
		t.Fatalf("zero-field round trip = %+v, %v", got, err)
	}
}

func TestBadKeysRejected(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	for _, k := range []Key{
		{Op: "label", Params: "a\nb", Version: "v1"},
		{Op: "la\nbel", Version: "v1"},
		{Op: "label", Version: "v\n1"},
		{}, // empty op
	} {
		if err := s.Put(k, []byte("x")); !errors.Is(err, ErrBadKey) {
			t.Errorf("Put(%+v): err = %v, want ErrBadKey", k, err)
		}
		if _, err := s.Get(k); !errors.Is(err, ErrBadKey) {
			t.Errorf("Get(%+v): err = %v, want ErrBadKey", k, err)
		}
	}
}

func TestDecodeRecordRejectsEveryCorruption(t *testing.T) {
	key := testKey(1).Encode()
	data := []byte("payload bytes")
	frame := encodeRecord(key, data)

	check := func(name string, raw []byte) {
		t.Helper()
		if _, _, err := decodeRecord(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	check("empty", nil)
	check("short header", frame[:recordHeader-1])
	check("truncated body", frame[:len(frame)-3])
	check("trailing bytes", append(append([]byte(nil), frame...), 'x'))
	bad := append([]byte(nil), frame...)
	bad[0] ^= 0xff
	check("bad magic", bad)
	bad = append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x01
	check("flipped payload byte", bad)
	bad = append([]byte(nil), frame...)
	bad[recordHeader+2] ^= 0x01
	check("flipped key byte", bad)

	// The clean frame still decodes.
	gotKey, gotData, err := decodeRecord(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotKey, key) || !bytes.Equal(gotData, data) {
		t.Fatal("clean frame did not round trip")
	}
}

// TestRecoveryQuarantinesCorruptRecords corrupts records on disk and
// verifies the reopen scan quarantines them — never serves them, never
// silently deletes them.
func TestRecoveryQuarantinesCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	keep, torn, flipped := testKey(1), testKey(2), testKey(3)
	for _, k := range []Key{keep, torn, flipped} {
		if err := s.Put(k, []byte("payload for "+k.Params)); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt two of the three record files behind the store's back.
	_, tornPath := s.pathFor(torn.Encode())
	raw, err := os.ReadFile(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, flipPath := s.pathFor(flipped.Encode())
	raw, err = os.ReadFile(flipPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x40
	if err := os.WriteFile(flipPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, stats := mustOpen(t, dir)
	if stats.Scanned != 3 || stats.Valid != 1 || stats.Quarantined != 2 {
		t.Fatalf("recovery stats = %+v, want 3 scanned / 1 valid / 2 quarantined", stats)
	}
	if s2.Quarantined() != 2 {
		t.Errorf("Quarantined() = %d, want 2", s2.Quarantined())
	}
	// The corrupt records are gone from the address space...
	for _, k := range []Key{torn, flipped} {
		if _, err := s2.Get(k); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(corrupt %s): err = %v, want ErrNotFound after quarantine", k.Params, err)
		}
	}
	// ...the valid one still serves...
	if _, err := s2.Get(keep); err != nil {
		t.Errorf("Get(valid): %v", err)
	}
	// ...and nothing was silently deleted: both live in quarantine/.
	qEntries, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil {
		t.Fatal(err)
	}
	if len(qEntries) != 2 {
		t.Errorf("quarantine holds %d files, want 2", len(qEntries))
	}
}

func TestVersionIsPartOfTheAddress(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	k := testKey(1)
	if err := s.Put(k, []byte("v1 document")); err != nil {
		t.Fatal(err)
	}
	bumped := k
	bumped.Version = "v2"
	if _, err := s.Get(bumped); !errors.Is(err, ErrNotFound) {
		t.Fatalf("bumped-version Get: err = %v, want ErrNotFound (old records invalid by address)", err)
	}
	if _, err := s.Get(k); err != nil {
		t.Fatal(err)
	}
}

func TestProbe(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	if err := s.Probe(); err != nil {
		t.Fatalf("clean probe: %v", err)
	}
}

// TestConcurrentPutGet exercises the backend under the race detector:
// concurrent writers and readers over overlapping keys.
func TestConcurrentPutGet(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	const workers, rounds = 8, 32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := testKey(r % 4)
				if err := s.Put(k, []byte(fmt.Sprintf("w%d r%d", w, r))); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get(k); err != nil && !errors.Is(err, ErrNotFound) {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if q := s.Quarantined(); q != 0 {
		t.Errorf("quarantined %d records under clean concurrent use", q)
	}
}
