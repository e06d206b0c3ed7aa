package serve

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/conform"
)

// TestCorpusOverHTTP is the conformance corpus as a client of the job
// server sees it: every case's config.json, posted verbatim with
// ?wait=1, must settle done, and GET /jobs/{id}/stats must return its
// expected_stats.json byte for byte. A second pass over the same bodies
// must give the same bytes, every case answered from the answer table.
func TestCorpusOverHTTP(t *testing.T) {
	cases, err := conform.Discover(filepath.Join("..", "..", "testdata", "conform"), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("no conformance cases found")
	}
	s, ts := startServer(t, Config{Workers: 2})
	for pass := 1; pass <= 2; pass++ {
		for _, c := range cases {
			body, err := os.ReadFile(filepath.Join(c.Dir, conform.ConfigFile))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(c.Dir, conform.ExpectedFile))
			if err != nil {
				t.Fatal(err)
			}
			resp, b := postJob(t, ts, body, "corpus", true)
			if v := decodeView(t, b); resp.StatusCode != http.StatusOK || v.Status != StatusDone {
				t.Errorf("pass %d, %s: status %d, job %+v; want 200 done", pass, c.Name, resp.StatusCode, v)
			} else if _, got := getPath(t, ts, "/jobs/"+v.ID+"/stats"); !bytes.Equal(got, want) {
				t.Errorf("pass %d, %s: server stats differ from %s:\n%s", pass, c.Name, conform.ExpectedFile, got)
			}
		}
		s.mu.Lock()
		answered := s.answered
		s.mu.Unlock()
		if want := int64((pass - 1) * len(cases)); answered != want {
			t.Errorf("after pass %d: %d of %d cases answered from the table, want %d", pass, answered, len(cases), want)
		}
	}
}
