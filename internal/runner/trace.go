package runner

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/metrics"
)

// JobTracer converts the runner's Events stream into a Chrome
// trace_event timeline (metrics.Trace): one thread track per batch
// slot, a "queued" span from acceptance to pickup, a "run" (or
// "cached") span from pickup to completion annotated with cycles and
// wall time, an instant marker for each failure, and counter tracks for
// the batch's queued/running/done totals and — when a Cache is
// attached — its hit/miss counters.
//
// Wire it up by wrapping the runner's Events callback:
//
//	tr := runner.NewJobTracer(cache) // cache may be nil
//	r.Events = tr.Wrap(r.Events)
//	... run batches ...
//	tr.WriteJSON(f) // or tr.Trace().WriteJSON
//
// One tracer may observe several sequential batches (paperfigs runs
// one per suite, and every sweep is a suite): timestamps are wall-clock
// microseconds since the tracer was created, so the batches appear one
// after another on a single timeline.
type JobTracer struct {
	mu    sync.Mutex
	tr    *metrics.Trace
	cache *Cache
	start time.Time
	live  map[int]*jobSpan
	batch int
}

type jobSpan struct {
	label    string
	queuedAt float64
	startAt  float64
	started  bool
}

// tracePid is the single process track all runner events live on.
const tracePid = 1

// NewJobTracer returns a tracer; cache, when non-nil, adds a counter
// track sampled from Cache.Counters at every job completion.
func NewJobTracer(cache *Cache) *JobTracer {
	t := &JobTracer{
		tr:    metrics.NewTrace(),
		cache: cache,
		start: time.Now(),
		live:  make(map[int]*jobSpan),
	}
	t.tr.ProcessName(tracePid, "simulation runner")
	return t
}

// now returns microseconds since tracer creation.
func (t *JobTracer) now() float64 {
	return float64(time.Since(t.start)) / float64(time.Microsecond)
}

// Wrap returns an Events callback that records every event into the
// trace and then forwards to next (which may be nil). The runner
// serializes Events callbacks, so Wrap's callback never races with
// itself; the tracer's own lock covers multi-runner sharing.
func (t *JobTracer) Wrap(next Events) Events {
	return func(ev Event) {
		t.observe(ev)
		if next != nil {
			next(ev)
		}
	}
}

func (t *JobTracer) observe(ev Event) {
	ts := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	// tid is the slot within the current batch, offset so sequential
	// batches get distinct tracks instead of overwriting each other's
	// thread names.
	switch ev.Kind {
	case JobQueued:
		if sp, ok := t.live[ev.Index]; ok && sp.started {
			// A queued event for a slot with an unfinished span means a
			// new batch began while we thought one was live — emit what
			// we have so the span is not lost.
			t.flushLocked(ev.Index, sp, ts)
		}
		if ev.Index == 0 && len(t.live) == 0 {
			t.batch++
		}
		t.live[ev.Index] = &jobSpan{label: ev.Label, queuedAt: ts}
		t.tr.ThreadName(tracePid, t.tid(ev.Index), fmt.Sprintf("batch %d slot %d", t.batch, ev.Index))
	case JobStarted:
		sp, ok := t.live[ev.Index]
		if !ok {
			sp = &jobSpan{label: ev.Label, queuedAt: ts}
			t.live[ev.Index] = sp
		}
		sp.started = true
		sp.startAt = ts
		t.tr.Complete(sp.label, "queued", tracePid, t.tid(ev.Index), sp.queuedAt, ts-sp.queuedAt, nil)
	case JobDone:
		sp, ok := t.live[ev.Index]
		if !ok {
			sp = &jobSpan{label: ev.Label, queuedAt: ts, startAt: ts, started: true}
		}
		cat := "run"
		if ev.Cached {
			cat = "cached"
		}
		args := map[string]any{
			"cycles":  ev.Cycles,
			"wall_ms": float64(ev.Wall) / float64(time.Millisecond),
			"cached":  ev.Cached,
		}
		if ev.Err != nil {
			args["error"] = ev.Err.Error()
		}
		t.tr.Complete(sp.label, cat, tracePid, t.tid(ev.Index), sp.startAt, ts-sp.startAt, args)
		if ev.Err != nil {
			t.tr.Instant("FAILED "+sp.label, "failure", tracePid, t.tid(ev.Index), ts,
				map[string]any{"error": ev.Err.Error()})
		}
		delete(t.live, ev.Index)
		if t.cache != nil {
			hits, misses := t.cache.Counters()
			t.tr.Counter("cache", tracePid, ts, map[string]any{"hits": hits, "misses": misses})
		}
	}
	// The batch-progress counter track, from the event's own snapshot.
	t.tr.Counter("jobs", tracePid, ts, map[string]any{
		"queued": ev.Queued, "running": ev.Running, "done": ev.Done,
	})
}

// tid maps a batch slot to its trace thread id (1-based).
func (t *JobTracer) tid(index int) int { return index + 1 }

// flushLocked closes a dangling span at ts. Caller holds t.mu.
func (t *JobTracer) flushLocked(index int, sp *jobSpan, ts float64) {
	t.tr.Complete(sp.label, "run", tracePid, t.tid(index), sp.startAt, ts-sp.startAt,
		map[string]any{"truncated": true})
	delete(t.live, index)
}

// Trace exposes the accumulated trace.
func (t *JobTracer) Trace() *metrics.Trace { return t.tr }

// WriteJSON serializes the trace as Perfetto-loadable trace_event JSON.
func (t *JobTracer) WriteJSON(w io.Writer) error {
	return t.tr.WriteJSON(w)
}
