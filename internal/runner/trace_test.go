package runner

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// TestJobTracerTimeline runs a real batch (twice, through a shared
// cache, so cached spans appear) and validates the exported trace:
// every job contributes a queued span and a run/cached span, counter
// tracks exist, and the document parses under the same validation
// TestObservabilityExports and TestRecordReplayCLI apply to the files
// the commands write.
func TestJobTracerTimeline(t *testing.T) {
	jobs := testJobs()
	cache := NewCache()
	tr := NewJobTracer(cache)
	r := &Runner{Workers: 2, Cache: cache, Events: tr.Wrap(nil)}
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := metrics.ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	var queued, run, cached, counters int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Cat == "queued":
			queued++
		case ev.Ph == "X" && ev.Cat == "run":
			run++
		case ev.Ph == "X" && ev.Cat == "cached":
			cached++
		case ev.Ph == "C":
			counters++
		}
	}
	n := len(jobs)
	if queued != 2*n {
		t.Errorf("queued spans = %d, want %d", queued, 2*n)
	}
	if run != n {
		t.Errorf("run spans = %d, want %d (first batch simulates everything)", run, n)
	}
	if cached != n {
		t.Errorf("cached spans = %d, want %d (second batch is fully cached)", cached, n)
	}
	if counters == 0 {
		t.Error("no counter events recorded")
	}
	// The cache counter track must reflect the second batch's hits.
	if !strings.Contains(buf.String(), `"cache"`) {
		t.Error("cache counter track missing")
	}
}

// TestJobTracerFailuresAndRetries checks the failure instant using the
// fault-injection seam: job 0 fails, jobs 1 and 2 are clean. A failed
// job is simulated once, so the trace carries no retry marker.
func TestJobTracerFailuresAndRetries(t *testing.T) {
	jobs := testJobs()[:3]
	tr := NewJobTracer(nil)
	r := &Runner{
		Workers:   1,
		KeepGoing: true,
		Events:    tr.Wrap(nil),
		Intercept: func(ctx context.Context, index, attempt int, job Job, run SimFunc) (*stats.Stats, error) {
			if attempt != 0 {
				t.Errorf("job %d: attempt %d, want 0", index, attempt)
			}
			if index == 0 {
				return nil, errors.New("boom")
			}
			return run(ctx)
		},
	}
	if _, err := r.Run(context.Background(), jobs); err == nil {
		t.Fatal("expected batch error")
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := metrics.ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var failed, retried int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "i" && ev.Cat == "failure":
			failed++
		case ev.Ph == "i" && ev.Cat == "retry":
			retried++
		}
	}
	if failed != 1 {
		t.Errorf("failure markers = %d, want 1", failed)
	}
	if retried != 0 {
		t.Errorf("retry markers = %d, want 0", retried)
	}
}

// TestRunnerMetricsPlumbing proves Runner.Metrics reaches the engine:
// every simulated job emits a series named by its label, while cached
// jobs emit nothing new.
func TestRunnerMetricsPlumbing(t *testing.T) {
	jobs := testJobs()
	sink := metrics.NewMemorySink()
	cache := NewCache()
	r := &Runner{Workers: 2, Cache: cache, Metrics: sink, MetricsEvery: 64}
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	set := sink.Snapshot()
	for _, j := range jobs {
		s := set.Series[j.Label]
		if s == nil {
			t.Fatalf("no series for %q", j.Label)
		}
		if len(s.Rows) == 0 {
			t.Fatalf("series %q has no rows", j.Label)
		}
	}
	// Second, fully cached batch: no simulation, so no new rows.
	before := make(map[string]int)
	for l, s := range set.Series {
		before[l] = len(s.Rows)
	}
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	for l, s := range sink.Snapshot().Series {
		if len(s.Rows) != before[l] {
			t.Fatalf("cached batch added rows to %q (%d -> %d)", l, before[l], len(s.Rows))
		}
	}
}
