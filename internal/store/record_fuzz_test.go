package store

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// goldenGlob names the daemon's golden response documents: the bytes a
// server persists as record payloads.
const goldenGlob = "../../cmd/refidemd/testdata/*.golden"

// FuzzDecodeRecord feeds arbitrary bytes to the record-frame decoder, the
// store's untrusted edge: every record file a Get or the recovery scan
// reads passes through it. No input may panic it. A frame it accepts must
// re-encode to exactly its bytes, and any single-byte change to a valid
// frame (the input's own, or a frame of the input's bytes when the input
// is not one) must be rejected with ErrCorrupt.
//
//	go test ./internal/store -run '^$' -fuzz FuzzDecodeRecord -fuzztime 30s
func FuzzDecodeRecord(f *testing.F) {
	paths, err := filepath.Glob(goldenGlob)
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden documents under %s (err %v)", goldenGlob, err)
	}
	for _, path := range paths {
		doc, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// A batch document has no top-level op; its record key is still
		// a well-formed one.
		var head struct{ Op, Fingerprint string }
		if err := json.Unmarshal(doc, &head); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		k := Key{Op: "label", Params: "deps=false;procs=0;cap=0", Version: "refidem-analysis/6"}
		if head.Op != "" {
			k.Op = head.Op
		}
		if fp, err := hex.DecodeString(head.Fingerprint); err == nil {
			copy(k.Fingerprint[:], fp)
		}
		frame := encodeRecord(k.Encode(), doc)
		// The first and last byte of each header field, the first key
		// byte and the last payload byte; then the frame with a byte
		// appended, and with its last byte cut.
		for _, pos := range []int{0, 5, 6, 9, 10, 13, 14, 17, recordHeader, len(frame) - 1} {
			f.Add(frame, uint32(pos), byte(0x01))
		}
		f.Add(frame, uint32(len(frame)/2), byte(0xff))
		f.Add(append(bytes.Clone(frame), '\n'), uint32(0), byte(0))
		f.Add(frame[:len(frame)-1], uint32(0), byte(0))
	}
	f.Add(encodeRecord(testKey(1).Encode(), nil), uint32(3), byte(0x80))
	f.Add([]byte(nil), uint32(0), byte(0))
	f.Add([]byte(recordMagic), uint32(0), byte(1))
	f.Fuzz(func(t *testing.T, raw []byte, pos uint32, x byte) {
		frame := raw
		key, data, err := decodeRecord(raw)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected with %v, want ErrCorrupt", err)
			}
			frame = encodeRecord(raw[:len(raw)/2], raw[len(raw)/2:])
			if key, data, err = decodeRecord(frame); err != nil {
				t.Fatalf("a fresh frame does not decode: %v", err)
			}
		}
		if again := encodeRecord(key, data); !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame re-encodes to other bytes:\n%x\nwant\n%x", again, frame)
		}
		if x == 0 {
			return
		}
		bad := bytes.Clone(frame)
		bad[int(pos%uint32(len(bad)))] ^= x
		if _, _, err := decodeRecord(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d xor %#x: err = %v, want ErrCorrupt", pos%uint32(len(bad)), x, err)
		}
	})
}
