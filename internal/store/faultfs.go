package store

import (
	"errors"
	"io/fs"
	"sync"
)

// FaultKind selects which file-operation fault a FaultFS injects.
type FaultKind int

const (
	// FaultNone injects nothing; all operations pass through.
	FaultNone FaultKind = iota
	// FaultTornWrite makes one write persist only a prefix of its bytes
	// while reporting full success — the classic torn write a checksum
	// must catch. One-shot: later writes are clean.
	FaultTornWrite
	// FaultENOSPC makes writes fail with ErrNoSpace from the trigger
	// point until Heal — a full disk.
	FaultENOSPC
	// FaultRenameFail makes renames fail with ErrRenameFailed from the
	// trigger point until Heal.
	FaultRenameFail
	// FaultCrash abandons the process state mid-write: the triggering
	// write persists only a prefix, and every subsequent operation fails
	// with ErrCrashed until Heal — the in-process analogue of SIGKILL
	// between a temp write and its rename.
	FaultCrash
	// FaultReadCorrupt makes reads return payloads with a flipped byte
	// from the trigger point until Heal — bit rot the frame checksum
	// must catch.
	FaultReadCorrupt
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultTornWrite:
		return "torn-write"
	case FaultENOSPC:
		return "enospc"
	case FaultRenameFail:
		return "rename-fail"
	case FaultCrash:
		return "crash"
	case FaultReadCorrupt:
		return "read-corrupt"
	}
	return "unknown"
}

// Injected fault errors. They deliberately do not wrap fs errors: the
// serving layer must treat any unrecognized store error as a degrade
// signal, and the tests assert it does.
var (
	ErrCrashed      = errors.New("store: injected crash: process state abandoned mid-write")
	ErrNoSpace      = errors.New("store: injected ENOSPC")
	ErrRenameFailed = errors.New("store: injected rename failure")
)

// FaultFS is a fileOps layer that injects faults into the operations
// beneath an FS backend. Arm schedules a fault, Heal clears all fault
// state (the "disk" works again), Fired reports how many faults actually
// triggered. Safe for concurrent use.
//
// Open a store over it with OpenWithFaults; the recovery scan, Get, Put
// and Probe all run through the layer.
type FaultFS struct {
	inner fileOps

	mu        sync.Mutex
	kind      FaultKind
	remaining int  // eligible operations left before the fault triggers
	active    bool // persistent fault has triggered and is still in force
	crashed   bool
	fired     int64
}

// NewFaultFS returns a fault layer over the real filesystem.
func NewFaultFS() *FaultFS { return &FaultFS{inner: osOps{}} }

// OpenWithFaults opens a filesystem store whose every file operation
// runs through the fault layer.
func OpenWithFaults(dir string, f *FaultFS) (*FS, RecoveryStats, error) {
	return openWith(dir, f)
}

// Arm schedules a fault: the after-th eligible operation (1 = the next
// one) triggers it. Persistent kinds stay in force until Heal; a torn
// write is one-shot. Arming replaces any previously armed fault but does
// not clear a crash — only Heal revives a crashed layer.
func (f *FaultFS) Arm(kind FaultKind, after int) {
	if after < 1 {
		after = 1
	}
	f.mu.Lock()
	f.kind = kind
	f.remaining = after
	f.active = false
	f.mu.Unlock()
}

// Heal clears every fault: armed, active and crashed state.
func (f *FaultFS) Heal() {
	f.mu.Lock()
	f.kind = FaultNone
	f.remaining = 0
	f.active = false
	f.crashed = false
	f.mu.Unlock()
}

// Fired reports how many faults have actually triggered.
func (f *FaultFS) Fired() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// Crashed reports whether a FaultCrash has triggered and not been
// healed.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// fire consumes one eligible operation for kind and reports whether the
// fault triggers on it. Callers hold f.mu.
func (f *FaultFS) fire(kind FaultKind) bool {
	if f.kind != kind {
		return false
	}
	if f.active {
		return true
	}
	f.remaining--
	if f.remaining > 0 {
		return false
	}
	f.fired++
	switch kind {
	case FaultTornWrite:
		f.kind = FaultNone // one-shot
	case FaultCrash:
		f.crashed = true
		f.active = true
	default:
		f.active = true
	}
	return true
}

func (f *FaultFS) MkdirAll(path string) error {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return f.inner.MkdirAll(path)
}

func (f *FaultFS) CreateTemp(dir, pattern string) (writeFile, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	w, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: f, w: w}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed
	}
	inject := f.fire(FaultRenameFail)
	f.mu.Unlock()
	if inject {
		return ErrRenameFailed
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return nil, ErrCrashed
	}
	corrupt := f.fire(FaultReadCorrupt)
	f.mu.Unlock()
	raw, err := f.inner.ReadFile(path)
	if err != nil || !corrupt || len(raw) == 0 {
		return raw, err
	}
	// Flip one mid-file byte: lands in the frame body for any realistic
	// record, which the CRC must catch.
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0xff
	return flipped, nil
}

func (f *FaultFS) ReadDir(path string) ([]fs.DirEntry, error) {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	return f.inner.ReadDir(path)
}

func (f *FaultFS) Remove(path string) error {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return f.inner.Remove(path)
}

func (f *FaultFS) SyncDir(path string) error {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return f.inner.SyncDir(path)
}

// faultFile routes writes and syncs of one temp file through the fault
// layer.
type faultFile struct {
	f *FaultFS
	w writeFile
}

func (w *faultFile) Name() string { return w.w.Name() }

func (w *faultFile) Write(p []byte) (int, error) {
	w.f.mu.Lock()
	if w.f.crashed {
		w.f.mu.Unlock()
		return 0, ErrCrashed
	}
	switch {
	case w.f.fire(FaultCrash):
		w.f.mu.Unlock()
		// The process "dies" mid-write: a prefix lands on disk, nothing
		// after this operation happens. Flush what the torn page would
		// have contained so the partial state is really there.
		if n := len(p) / 2; n > 0 {
			w.w.Write(p[:n])
			w.w.Sync()
		}
		w.w.Close()
		return 0, ErrCrashed
	case w.f.fire(FaultTornWrite):
		w.f.mu.Unlock()
		// A prefix persists but the write reports success.
		if n := len(p) / 2; n > 0 {
			if _, err := w.w.Write(p[:n]); err != nil {
				return 0, err
			}
		}
		return len(p), nil
	case w.f.fire(FaultENOSPC):
		w.f.mu.Unlock()
		return 0, ErrNoSpace
	}
	w.f.mu.Unlock()
	return w.w.Write(p)
}

func (w *faultFile) Sync() error {
	w.f.mu.Lock()
	crashed := w.f.crashed
	w.f.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return w.w.Sync()
}

func (w *faultFile) Close() error {
	w.f.mu.Lock()
	crashed := w.f.crashed
	w.f.mu.Unlock()
	if crashed {
		// The real descriptor still needs releasing or the test process
		// leaks it; the store's caller-visible error stays ErrCrashed.
		w.w.Close()
		return ErrCrashed
	}
	return w.w.Close()
}
