package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzV1Decode posts arbitrary bodies to /v1/label and /v1/batch of an
// in-process server, whose request decoder is the service's untrusted
// wire edge. No body may panic the server or draw a 500, and a 200 body
// must equal the answer of a server that has seen no other request, so
// the caches earlier inputs filled serve exact bytes. Batches holding a
// simulate item are skipped: no work budget bounds engine time yet, so
// one arbitrary simulate can run for minutes. Both servers serve no
// deltas, so a delta answers unknown-base on either, whatever bases
// earlier inputs would have registered.
//
//	go test ./internal/service -run '^$' -fuzz FuzzV1Decode -fuzztime 30s
func FuzzV1Decode(f *testing.F) {
	paths, err := filepath.Glob("../proptest/testdata/corpus/*.prog")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no corpus programs (err %v)", err)
	}
	var items []Request
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		items = append(items, Request{Program: string(src)}, Request{Program: string(src), Deps: true})
	}
	for _, name := range []string{"fig1", "fig2", "fig3", "buts"} {
		items = append(items, Request{Example: name}, Request{Example: name, Deps: true})
	}
	items = append(items, Request{Base: "00", Patches: []RegionPatch{{Region: "r", Source: "region r loop i = 0 to 1 {\n}\n"}}})
	for _, req := range items {
		f.Add(false, seedJSON(f, req))
		req.Op = OpLabel
		f.Add(true, seedJSON(f, BatchRequest{Requests: []Request{req}}))
	}
	for i := range items {
		items[i].Op = OpLabel
	}
	f.Add(true, seedJSON(f, BatchRequest{Requests: items}))
	f.Add(true, []byte(`{"requests":[{"op":"label","example":"fig2"},{"op":"label","example":"fig2"},{"example":"fig3"}]}`))
	f.Add(false, []byte(`{"program":"program p\nvar a[4]\nregion r loop i = 0 to 3 {\n  a[i] = a[i] + 1\n}\n","procs":-1}`))

	cfg := DefaultConfig()
	cfg.DeltaBases = -1
	s := New(cfg)
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, batch bool, body []byte) {
		path := "/v1/label"
		if batch {
			path = "/v1/batch"
			var doc BatchRequest
			if json.NewDecoder(bytes.NewReader(body)).Decode(&doc) == nil &&
				slices.ContainsFunc(doc.Requests, func(r Request) bool { return r.Op == OpSimulate }) {
				t.Skip("a simulate item has no work budget")
			}
		}
		code, got := post(s.Handler(), path, body)
		if code == http.StatusInternalServerError {
			t.Fatalf("POST %s answered 500: %s", path, got)
		}
		if code != http.StatusOK {
			return
		}
		fresh := New(cfg)
		defer fresh.Close()
		if wantCode, want := post(fresh.Handler(), path, body); wantCode != code || !bytes.Equal(got, want) {
			t.Fatalf("POST %s answered %d:\n%s\na fresh server answers %d:\n%s", path, code, got, wantCode, want)
		}
	})
}

// post serves one POST of body to path on h and returns the status and
// response body.
func post(h http.Handler, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func seedJSON(f *testing.F, v any) []byte {
	f.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		f.Fatal(err)
	}
	return b
}
