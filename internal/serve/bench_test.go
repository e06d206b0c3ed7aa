package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkWarmHit times one warm ?wait=1 hit over loopback HTTP — a
// body the answer table settled before, so no simulation is in the
// path: the client's request, the body digest and answer lookup, the
// job record, the response encoding and the client's read of it.
//
//	go test -run '^$' -bench WarmHit -benchmem ./internal/serve/
func BenchmarkWarmHit(b *testing.B) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := testSpec(b, 1)
	post := func() {
		resp, err := ts.Client().Post(ts.URL+"/jobs?wait=1", "application/json", bytes.NewReader(spec))
		if err != nil {
			b.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d, %v: %s", resp.StatusCode, err, body)
		}
	}
	post() // the miss that settles the answer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
