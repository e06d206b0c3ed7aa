package main

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/stats"
)

// Every result a run produces is checked by its bytes. For the seeds the
// repository commits digests for (1, and 2 — held back for claims) each
// result's SHA-256 of its conform.Normalize bytes must equal the
// committed one. For any other seed the same content key must always
// give the same bytes, and every result must satisfy the stats
// conservation identity.

//go:embed expected/*.json
var expectedFS embed.FS

// expectedFile is bench/expected/<workload>.seed<N>.json.
type expectedFile struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Digests  map[string]string `json:"digests"` // content key -> sha256 hex
}

func expectedName(workload string, seed uint64) string {
	return fmt.Sprintf("%s.seed%d.json", workload, seed)
}

// loadExpected returns the committed digests for (workload, seed), or
// nil when none are committed for that seed.
func loadExpected(workload string, seed uint64) (map[string]string, error) {
	b, err := expectedFS.ReadFile("expected/" + expectedName(workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f expectedFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedName(workload, seed), err)
	}
	if f.Workload != workload || f.Seed != seed {
		return nil, fmt.Errorf("%s names workload %q seed %d", expectedName(workload, seed), f.Workload, f.Seed)
	}
	return f.Digests, nil
}

// checker counts operations attempted and failed. A refused, failed or
// byte-mismatching job is a failure.
type checker struct {
	mu        sync.Mutex
	expected  map[string]string // nil: no committed digests for this seed
	seen      map[string]string // digests this run produced
	attempted int
	failed    int
	reasons   []string // the first few failures, for the report
}

func newChecker(expected map[string]string) *checker {
	return &checker{expected: expected, seen: map[string]string{}}
}

func (c *checker) failLocked(format string, args ...any) {
	c.failed++
	if len(c.reasons) < 8 {
		c.reasons = append(c.reasons, fmt.Sprintf(format, args...))
	}
}

// op counts one operation that returns no result bytes (a cancellation).
func (c *checker) op(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failLocked("%v", err)
	}
}

// result counts one operation and checks its normalized stats bytes.
// err reports an operation that produced none.
func (c *checker) result(key string, norm []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failLocked("%s: %v", key, err)
		return
	}
	sum := sha256.Sum256(norm)
	got := hex.EncodeToString(sum[:])
	if prev, ok := c.seen[key]; ok {
		if prev != got {
			c.failLocked("%s: bytes differ between two results of one run", key)
		}
		return // already checked against the expectation
	}
	c.seen[key] = got
	if c.expected != nil {
		want, ok := c.expected[key]
		switch {
		case !ok:
			c.failLocked("%s: no committed digest", key)
		case want != got:
			c.failLocked("%s: digest %s, committed %s", key, got[:12], want[:12])
		}
		return
	}
	var st stats.Stats
	dec := json.NewDecoder(bytes.NewReader(norm))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&st); err != nil {
		c.failLocked("%s: result does not decode as stats: %v", key, err)
		return
	}
	if err := st.CheckConservation(); err != nil {
		c.failLocked("%s: %v", key, err)
	}
}

// absorb adds another checker's counts (a traced run checks each
// workload against its own digests and reports one total).
func (c *checker) absorb(o *checker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted += o.attempted
	c.failed += o.failed
	c.reasons = append(c.reasons, o.reasons...)
}

// writeExpected regenerates bench/expected/<workload>.seed<N>.json from
// the digests this run produced (-update).
func (c *checker) writeExpected(dir, workload string, seed uint64) error {
	c.mu.Lock()
	f := expectedFile{Workload: workload, Seed: seed, Digests: c.seen}
	b, err := json.MarshalIndent(f, "", "  ")
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, expectedName(workload, seed)), append(b, '\n'), 0o644)
}

// renormalize restores conform.Normalize's byte form from stats embedded
// in an indented job resource, where the encoder re-indented them.
func renormalize(raw json.RawMessage) ([]byte, error) {
	var compact, out bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		return nil, err
	}
	if err := json.Indent(&out, compact.Bytes(), "", "  "); err != nil {
		return nil, err
	}
	out.WriteByte('\n')
	return out.Bytes(), nil
}
