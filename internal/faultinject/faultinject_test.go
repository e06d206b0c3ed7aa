package faultinject

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/trace"
)

// tinyKernel builds a deterministic kernel small enough that a batch of
// them simulates in milliseconds.
func tinyKernel(name string, linesPerWarp, touches int) *trace.Kernel {
	k := &trace.Kernel{Name: name}
	blk := &trace.Block{}
	for w := 0; w < 2; w++ {
		wt := &trace.WarpTrace{}
		for l := 0; l < linesPerWarp; l++ {
			for t := 0; t < touches; t++ {
				wt.Instrs = append(wt.Instrs,
					trace.NewLoad(uint32(l%8), []addr.Addr{addr.Addr((w*linesPerWarp + l) * 128)}))
			}
			wt.Instrs = append(wt.Instrs, trace.NewCompute(50, 4, 32))
		}
		blk.Warps = append(blk.Warps, wt)
	}
	k.Blocks = append(k.Blocks, blk)
	return k
}

// batch builds n distinct jobs over the four policies.
func batch(n int) []runner.Job {
	jobs := make([]runner.Job, n)
	pols := policy.All()
	for i := range jobs {
		jobs[i] = runner.Job{
			Label:  fmt.Sprintf("job-%d", i),
			Config: config.Baseline(),
			Policy: pols[i%len(pols)],
			Kernel: tinyKernel(fmt.Sprintf("k%d", i/len(pols)), 4, 2),
		}
	}
	return jobs
}

// TestPanicIsolation: a panicking job becomes a *runner.JobPanicError
// with a captured stack; the pool and the process survive.
func TestPanicIsolation(t *testing.T) {
	p := NewPlan(1)
	p.Set(2, Fault{Kind: Panic})
	r := &runner.Runner{Workers: 4, Intercept: p.Intercept()}
	_, err := r.Run(context.Background(), batch(8))
	if err == nil {
		t.Fatal("panicking job did not fail the fail-fast batch")
	}
	var pe *runner.JobPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *runner.JobPanicError", err)
	}
	if pe.Index != 2 {
		t.Errorf("panic attributed to index %d, want 2", pe.Index)
	}
	if len(pe.Stack) == 0 {
		t.Error("recovered panic carries no stack")
	}
	if !strings.Contains(string(pe.Stack), "faultinject") {
		t.Error("stack does not reach the panic site")
	}
}

// TestKeepGoingPartialResults: with KeepGoing, every healthy job
// completes, every faulted job carries its own error, and the
// *runner.BatchError lists exactly the faulted indices in order.
func TestKeepGoingPartialResults(t *testing.T) {
	p := NewPlan(2)
	p.Set(1, Fault{Kind: Panic})
	p.Set(5, Fault{Kind: Fail})
	jobs := batch(8)
	r := &runner.Runner{Workers: 4, KeepGoing: true, Intercept: p.Intercept()}
	results, err := r.Run(context.Background(), jobs)

	var be *runner.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *runner.BatchError", err)
	}
	if be.Total != len(jobs) || len(be.Failures) != 2 {
		t.Fatalf("BatchError reports %d/%d failures, want 2/%d", len(be.Failures), be.Total, len(jobs))
	}
	if be.Failures[0].Index != 1 || be.Failures[1].Index != 5 {
		t.Errorf("failure indices = %d,%d; want 1,5", be.Failures[0].Index, be.Failures[1].Index)
	}
	for i, res := range results {
		faulted := i == 1 || i == 5
		if faulted && (res.Err == nil || res.Stats != nil) {
			t.Errorf("faulted job %d: err=%v stats=%v", i, res.Err, res.Stats)
		}
		if !faulted && (res.Err != nil || res.Stats == nil) {
			t.Errorf("healthy job %d did not complete: %v", i, res.Err)
		}
	}
	if !errors.As(err, new(*runner.JobPanicError)) {
		t.Error("BatchError does not expose the wrapped panic to errors.As")
	}
}

// TestHangTimesOut: a hung job is bounded by the per-job deadline and
// fails with context.DeadlineExceeded without disturbing its
// neighbours.
func TestHangTimesOut(t *testing.T) {
	p := NewPlan(6)
	p.Set(3, Fault{Kind: Hang})
	r := &runner.Runner{
		Workers:   2,
		KeepGoing: true,
		Timeout:   30 * time.Millisecond,
		Intercept: p.Intercept(),
	}
	results, err := r.Run(context.Background(), batch(6))
	var be *runner.BatchError
	if !errors.As(err, &be) || len(be.Failures) != 1 || be.Failures[0].Index != 3 {
		t.Fatalf("err = %v, want BatchError with exactly job 3 failed", err)
	}
	if !errors.Is(results[3].Err, context.DeadlineExceeded) {
		t.Errorf("hung job error = %v, want DeadlineExceeded", results[3].Err)
	}
	for i, res := range results {
		if i != 3 && res.Err != nil {
			t.Errorf("healthy job %d caught the hang: %v", i, res.Err)
		}
	}
}

// TestCancelBatchSummary: an external cancellation mid-batch surfaces
// as a *runner.CancelError summarizing progress, still matching
// context.Canceled.
func TestCancelBatchSummary(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := NewPlan(8)
	p.Set(4, Fault{Kind: CancelBatch})
	p.OnCancel = cancel
	// One worker: with more, scheduler starvation of the faulted job's
	// worker can let the rest of the batch drain before the cancel fires,
	// leaving nothing queued to summarize.
	r := &runner.Runner{Workers: 1, Intercept: p.Intercept()}
	_, err := r.Run(ctx, batch(12))

	var ce *runner.CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *runner.CancelError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("CancelError does not unwrap to context.Canceled")
	}
	if ce.Total != 12 || ce.Done+ce.Queued != ce.Total {
		t.Errorf("inconsistent summary: done=%d queued=%d total=%d", ce.Done, ce.Queued, ce.Total)
	}
	if ce.Queued == 0 {
		t.Error("cancellation at job 4 of 12 left nothing queued")
	}
}

// TestDeterminismUnderFaults: the same plan on the same batch yields
// identical per-job outcomes — stats, error text, and aggregate error —
// at -j 1 and -j 8.
func TestDeterminismUnderFaults(t *testing.T) {
	run := func(workers int) ([]runner.Result, error) {
		t.Helper()
		p := NewPlan(9)
		p.Set(2, Fault{Kind: Panic})
		p.Set(7, Fault{Kind: Fail})
		r := &runner.Runner{Workers: workers, KeepGoing: true, Intercept: p.Intercept()}
		return r.Run(context.Background(), batch(12))
	}
	serial, errS := run(1)
	parallel, errP := run(8)
	if (errS == nil) != (errP == nil) {
		t.Fatalf("outcome differs: -j1 err=%v, -j8 err=%v", errS, errP)
	}
	if errS != nil && errS.Error() != errP.Error() {
		t.Errorf("aggregate errors differ:\n-j1: %v\n-j8: %v", errS, errP)
	}
	for i := range serial {
		s, q := serial[i], parallel[i]
		if (s.Stats == nil) != (q.Stats == nil) {
			t.Errorf("job %d: stats presence differs between -j1 and -j8", i)
			continue
		}
		if s.Stats != nil && *s.Stats != *q.Stats {
			t.Errorf("job %d: stats differ between -j1 and -j8", i)
		}
		if (s.Err == nil) != (q.Err == nil) ||
			(s.Err != nil && s.Err.Error() != q.Err.Error()) {
			t.Errorf("job %d: errors differ: %v vs %v", i, s.Err, q.Err)
		}
	}
}

// TestQuarantineAndResimulate covers the three disk-entry failure
// modes: bit-rot (checksum), truncation (parse), and a stale schema.
// Each must be quarantined as .corrupt and transparently resimulated.
func TestQuarantineAndResimulate(t *testing.T) {
	damage := map[string]func(dir, key string, jobs []runner.Job) error{
		"corrupted": func(dir, key string, _ []runner.Job) error { return CorruptEntry(dir, key) },
		"truncated": func(dir, key string, _ []runner.Job) error { return TruncateEntry(dir, key) },
		"stale-schema": func(dir, key string, jobs []runner.Job) error {
			return StaleSchemaEntry(dir, key, nil)
		},
	}
	for name, damageFn := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			jobs := batch(1)
			key := jobs[0].Key()
			if key == "" {
				t.Fatal("test job unexpectedly uncacheable")
			}

			c1, err := runner.OpenDiskCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			first, err := (&runner.Runner{Workers: 1, Cache: c1}).Run(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			if err := damageFn(dir, key, jobs); err != nil {
				t.Fatal(err)
			}

			// A fresh process must detect the damage, quarantine, and
			// resimulate rather than serve or silently drop the entry.
			c2, err := runner.OpenDiskCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			second, err := (&runner.Runner{Workers: 1, Cache: c2}).Run(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			if second[0].Cached {
				t.Error("damaged entry was served from the cache")
			}
			if !IsQuarantined(dir, key) {
				t.Error("damaged entry was not quarantined as .corrupt")
			}
			if q := c2.Quarantined(); q != 1 {
				t.Errorf("Quarantined() = %d, want 1", q)
			}
			if *first[0].Stats != *second[0].Stats {
				t.Error("resimulated stats differ from the original run")
			}

			// The resimulation rewrote a fresh entry: a third process
			// gets a clean hit.
			c3, err := runner.OpenDiskCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			third, err := (&runner.Runner{Workers: 1, Cache: c3}).Run(context.Background(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			if !third[0].Cached {
				t.Error("rewritten entry not served from the cache")
			}
		})
	}
}

// TestUncacheableKernelNeverCached: a kernel that cannot be serialized
// has no content address; its jobs simulate every time instead of
// risking a cross-process pointer-collision hit, and the digest failure
// is memoized.
func TestUncacheableKernelNeverCached(t *testing.T) {
	k := tinyKernel(strings.Repeat("x", 1<<20), 2, 1) // name exceeds the trace format's limit
	job := runner.Job{Label: "uncacheable", Config: config.Baseline(),
		Policy: config.PolicyBaseline, Kernel: k}
	if key := job.Key(); key != "" {
		t.Fatalf("unserializable kernel got cache key %q", key)
	}
	// Memoized: the second call must not re-walk the trace; we can only
	// observe the result, so check stability.
	if key := job.Key(); key != "" {
		t.Fatalf("memoized digest failure changed outcome: %q", key)
	}

	cache := runner.NewCache()
	r := &runner.Runner{Workers: 1, Cache: cache}
	for i := 0; i < 2; i++ {
		results, err := r.Run(context.Background(), []runner.Job{job})
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Cached {
			t.Fatalf("run %d: uncacheable job served from cache", i)
		}
	}
	if cache.Len() != 0 {
		t.Errorf("cache holds %d entries for an uncacheable job", cache.Len())
	}
}

// TestPickIndicesDeterministic: fault placement derives from the seed
// alone.
func TestPickIndicesDeterministic(t *testing.T) {
	a := NewPlan(1234).PickIndices(5, 36)
	b := NewPlan(1234).PickIndices(5, 36)
	if len(a) != 5 {
		t.Fatalf("picked %d indices, want 5", len(a))
	}
	seen := map[int]bool{}
	for i, v := range a {
		if v != b[i] {
			t.Fatalf("same seed picked different indices: %v vs %v", a, b)
		}
		if v < 0 || v >= 36 || seen[v] {
			t.Fatalf("invalid or duplicate index %d in %v", v, a)
		}
		seen[v] = true
	}
	if c := NewPlan(5678).PickIndices(5, 36); fmt.Sprint(c) == fmt.Sprint(a) {
		t.Errorf("different seeds picked identical indices %v", a)
	}
}

// TestGenericFileCorruption exercises the path-level corruption
// helpers the conformance corpus tests build on: digit flips keep JSON
// parseable but change a value, truncation breaks the document, and
// garbling replaces it with non-JSON bytes. Missing files error.
func TestGenericFileCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "expected_stats.json")
	orig := []byte("{\n  \"Cycles\": 1234\n}\n")

	write := func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write()
	if err := CorruptFileDigit(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) == string(orig) {
		t.Error("CorruptFileDigit left the file unchanged")
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Errorf("digit-flipped file no longer parses: %v", err)
	}
	if m["Cycles"] == float64(1234) {
		t.Error("digit flip did not change the value")
	}

	write()
	if err := TruncateFile(path); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(path)
	if len(b) != len(orig)/2 {
		t.Errorf("TruncateFile left %d bytes, want %d", len(b), len(orig)/2)
	}
	if json.Unmarshal(b, &m) == nil {
		t.Error("truncated JSON still parses — corruption model broken")
	}

	write()
	if err := GarbleFile(path); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(path)
	if json.Unmarshal(b, &m) == nil {
		t.Error("garbled file still parses as JSON")
	}

	missing := filepath.Join(dir, "nope.json")
	if err := CorruptFileDigit(missing); err == nil {
		t.Error("CorruptFileDigit on missing file did not error")
	}
	if err := TruncateFile(missing); err == nil {
		t.Error("TruncateFile on missing file did not error")
	}
	if err := GarbleFile(missing); err == nil {
		t.Error("GarbleFile on missing file did not error")
	}

	// No digits at all: the flip must fail loudly, not silently no-op.
	if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CorruptFileDigit(path); err == nil {
		t.Error("CorruptFileDigit with no digit to flip did not error")
	}
}
