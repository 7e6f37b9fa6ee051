package store

import (
	"fmt"
	"testing"
)

// benchPayload approximates a label response document.
var benchPayload = func() []byte {
	b := make([]byte, 2048)
	for i := range b {
		b[i] = byte(' ' + i%90)
	}
	return b
}()

// BenchmarkStorePut measures one durable record write — frame, temp
// file, fsync, rename, directory sync. It is fs-bound by design (two
// fsyncs per op); the CI gate holds ns/op loosely and allocs/op with the
// fs-bound slack.
func BenchmarkStorePut(b *testing.B) {
	s, _, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]Key, 64)
	for i := range keys {
		keys[i] = testBenchKey(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(keys[i%len(keys)], benchPayload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet measures one validated read: file read, frame
// decode, CRC check, key comparison.
func BenchmarkStoreGet(b *testing.B) {
	s, _, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]Key, 64)
	for i := range keys {
		keys[i] = testBenchKey(i)
		if err := s.Put(keys[i], benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreRecoveryScan measures reopening a directory of 256
// records — the startup cost a -store daemon pays once, and the only time
// boot reads the store.
func BenchmarkStoreRecoveryScan(b *testing.B) {
	dir := b.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if err := s.Put(testBenchKey(i), benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, stats, err := Open(dir); err != nil || stats.Valid != 256 {
			b.Fatalf("stats %+v, err %v", stats, err)
		}
	}
}

func testBenchKey(i int) Key {
	k := Key{Op: "label", Version: "bench", Params: fmt.Sprintf("i=%d", i)}
	k.Fingerprint[0] = byte(i)
	k.Fingerprint[1] = byte(i >> 8)
	return k
}
