package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// fileOps is the seam between the FS backend and the operating system:
// every file operation the backend performs goes through it, so FaultFS
// can substitute faulty implementations without touching the backend's
// logic. osOps is the real implementation.
type fileOps interface {
	MkdirAll(path string) error
	CreateTemp(dir, pattern string) (writeFile, error)
	Rename(oldpath, newpath string) error
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]fs.DirEntry, error)
	Remove(path string) error
	// SyncDir fsyncs a directory so a completed rename is durable.
	SyncDir(path string) error
}

// writeFile is the writable handle CreateTemp returns.
type writeFile interface {
	io.Writer
	Name() string
	Sync() error
	Close() error
}

// osOps is the real-filesystem fileOps.
type osOps struct{}

func (osOps) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }
func (osOps) CreateTemp(dir, pattern string) (writeFile, error) {
	return os.CreateTemp(dir, pattern)
}
func (osOps) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osOps) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }
func (osOps) ReadDir(path string) ([]fs.DirEntry, error) {
	return os.ReadDir(path)
}
func (osOps) Remove(path string) error { return os.Remove(path) }
func (osOps) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// FS is the filesystem Backend. Layout under the root directory:
//
//	records/xx/<hash>.rec  one frame per record, fanned out by the first
//	                       two hex digits of the key hash
//	tmp/                   in-flight writes (swept at Open)
//	quarantine/            corrupt records moved aside by recovery/Get
//
// The record path is a pure function of the key, so Get is stateless: no
// in-memory index to rebuild or to fall out of sync with the directory —
// records written by another process with the same root are simply
// visible.
type FS struct {
	root string
	ops  fileOps

	// qmu serializes quarantine renames; qseq disambiguates quarantined
	// names when the same record is quarantined repeatedly.
	qmu  sync.Mutex
	qseq int

	quarantined atomic.Int64
}

// Open opens (creating if needed) a filesystem store rooted at dir and
// runs the recovery scan: every record is validated, corrupt records are
// quarantined, abandoned temp files are swept. The returned stats report
// what the scan found.
func Open(dir string) (*FS, RecoveryStats, error) {
	return openWith(dir, osOps{})
}

// openWith is Open on an explicit fileOps; the fault-injection tests use
// it to open a store over a FaultFS.
func openWith(dir string, ops fileOps) (*FS, RecoveryStats, error) {
	s := &FS{root: dir, ops: ops}
	for _, sub := range []string{s.recordsDir(), s.tmpDir(), s.quarantineDir()} {
		if err := ops.MkdirAll(sub); err != nil {
			return nil, RecoveryStats{}, fmt.Errorf("store: create %s: %w", sub, err)
		}
	}
	stats, err := s.recover()
	if err != nil {
		return nil, stats, err
	}
	return s, stats, nil
}

func (s *FS) recordsDir() string    { return filepath.Join(s.root, "records") }
func (s *FS) tmpDir() string        { return filepath.Join(s.root, "tmp") }
func (s *FS) quarantineDir() string { return filepath.Join(s.root, "quarantine") }

// pathFor maps a key to its record path: sha256 of the canonical key
// encoding, hex, fanned out on the first two digits.
func (s *FS) pathFor(enc []byte) (dir, path string) {
	sum := sha256.Sum256(enc)
	name := hex.EncodeToString(sum[:])
	dir = filepath.Join(s.recordsDir(), name[:2])
	return dir, filepath.Join(dir, name+".rec")
}

// recover scans every record file, quarantining the corrupt and sweeping
// abandoned temp files. Only fatal directory errors abort; per-file
// problems are handled and counted.
func (s *FS) recover() (RecoveryStats, error) {
	var stats RecoveryStats
	if temps, err := s.ops.ReadDir(s.tmpDir()); err == nil {
		for _, e := range temps {
			if e.IsDir() {
				continue
			}
			// A temp file was never renamed into records/, so no reader can
			// have observed it; sweeping it is cleanup, not data loss.
			if s.ops.Remove(filepath.Join(s.tmpDir(), e.Name())) == nil {
				stats.TempsSwept++
			}
		}
	}
	fanouts, err := s.ops.ReadDir(s.recordsDir())
	if err != nil {
		return stats, fmt.Errorf("store: scan %s: %w", s.recordsDir(), err)
	}
	for _, fan := range fanouts {
		if !fan.IsDir() {
			continue
		}
		dir := filepath.Join(s.recordsDir(), fan.Name())
		entries, err := s.ops.ReadDir(dir)
		if err != nil {
			return stats, fmt.Errorf("store: scan %s: %w", dir, err)
		}
		for _, e := range entries {
			if e.IsDir() || filepath.Ext(e.Name()) != ".rec" {
				continue
			}
			stats.Scanned++
			path := filepath.Join(dir, e.Name())
			if err := s.checkRecord(path); err != nil {
				if errors.Is(err, ErrCorrupt) {
					s.quarantine(path)
					stats.Quarantined++
					continue
				}
				return stats, err
			}
			stats.Valid++
		}
	}
	return stats, nil
}

// checkRecord reads and validates one record file: its frame and the
// key encoded in it.
func (s *FS) checkRecord(path string) error {
	raw, err := s.ops.ReadFile(path)
	if err != nil {
		return err
	}
	keyEnc, _, err := decodeRecord(raw)
	if err != nil {
		return err
	}
	_, err = DecodeKey(keyEnc)
	return err
}

// quarantine moves a corrupt record aside — never served again, never
// silently deleted — under a unique name in quarantine/.
func (s *FS) quarantine(path string) {
	s.qmu.Lock()
	s.qseq++
	dst := filepath.Join(s.quarantineDir(), fmt.Sprintf("%s.%d.quarantined", filepath.Base(path), s.qseq))
	s.qmu.Unlock()
	// A failed quarantine rename leaves the corrupt record in place; it
	// still never serves (validation rejects it on every read).
	if s.ops.Rename(path, dst) == nil || !fileExists(s.ops, path) {
		s.quarantined.Add(1)
	}
}

func fileExists(ops fileOps, path string) bool {
	_, err := ops.ReadFile(path)
	return err == nil
}

// Get returns the payload persisted under k. A record that fails
// validation is quarantined and reported as ErrCorrupt.
func (s *FS) Get(k Key) ([]byte, error) {
	if err := k.validate(); err != nil {
		return nil, err
	}
	enc := k.Encode()
	_, path := s.pathFor(enc)
	raw, err := s.ops.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: read %s: %w", path, err)
	}
	keyEnc, data, err := decodeRecord(raw)
	if err != nil {
		s.quarantine(path)
		return nil, err
	}
	if !bytes.Equal(keyEnc, enc) {
		// The frame is internally consistent but describes a different
		// key: it cannot be the answer to this address.
		s.quarantine(path)
		return nil, fmt.Errorf("%w: record key does not match its address", ErrCorrupt)
	}
	return data, nil
}

// Put durably persists data under k: frame, temp write, fsync, atomic
// rename, directory sync. A crash at any point leaves either the old
// record or the new one, never a mix; a torn write that does land is
// caught by the frame checksum on read.
func (s *FS) Put(k Key, data []byte) error {
	if err := k.validate(); err != nil {
		return err
	}
	enc := k.Encode()
	dir, path := s.pathFor(enc)
	if err := s.ops.MkdirAll(dir); err != nil {
		return fmt.Errorf("store: create %s: %w", dir, err)
	}
	frame := encodeRecord(enc, data)
	f, err := s.ops.CreateTemp(s.tmpDir(), "put-*.tmp")
	if err != nil {
		return fmt.Errorf("store: create temp: %w", err)
	}
	tmpName := f.Name()
	cleanup := func() { _ = s.ops.Remove(tmpName) }
	if _, err := f.Write(frame); err != nil {
		f.Close()
		cleanup()
		return fmt.Errorf("store: write %s: %w", tmpName, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		cleanup()
		return fmt.Errorf("store: sync %s: %w", tmpName, err)
	}
	if err := f.Close(); err != nil {
		cleanup()
		return fmt.Errorf("store: close %s: %w", tmpName, err)
	}
	if err := s.ops.Rename(tmpName, path); err != nil {
		cleanup()
		return fmt.Errorf("store: rename into %s: %w", path, err)
	}
	if err := s.ops.SyncDir(dir); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}

// probeKey addresses the Probe self-check record; its reserved op keeps
// it out of any real result's address space.
func probeKey() Key {
	return Key{Op: "__probe__", Version: "store-self-check"}
}

// Probe writes and reads back a small self-check record. The serving
// layer calls it periodically while degraded to detect recovery.
func (s *FS) Probe() error {
	payload := []byte("store probe\n")
	if err := s.Put(probeKey(), payload); err != nil {
		return err
	}
	got, err := s.Get(probeKey())
	if err != nil {
		return err
	}
	if !bytes.Equal(got, payload) {
		return fmt.Errorf("store: probe read back %q, want %q", got, payload)
	}
	return nil
}

// Quarantined reports the total records quarantined since Open.
func (s *FS) Quarantined() int64 { return s.quarantined.Load() }
