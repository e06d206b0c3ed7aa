package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/metrics"
)

// A span is one call into a layer, recorded by the harness around the
// call (spans inside the program are a later change). Spans of one job
// share its id; parent is the index of the span that caused this one,
// or -1.
type span struct {
	layer, name, id string
	track           int
	start, end      time.Duration // since the tracer was created
	parent          int
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how end-to-end runs keep tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(layer, name, id string, track, parent int) int {
	if t == nil {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{layer: layer, name: name, id: id, track: track, start: now, end: -1, parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// add records a span whose interval is already known — children rebuilt
// from a job's server-side event log, placed inside the client span.
func (t *tracer) add(layer, name, id string, track, parent int, start, end time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{layer: layer, name: name, id: id, track: track, start: start, end: end, parent: parent})
	return len(t.spans) - 1
}

// startOf returns a span's start, for placing rebuilt children.
func (t *tracer) startOf(i int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[i].start
}

// layerTime is one row of the self-time table.
type layerTime struct {
	layer       string
	spans       int
	total, self time.Duration
}

// selfTimes attributes every span's duration to its layer: a span's self
// time is its duration minus the part of its interval its child spans
// cover (overlapping children are merged first, so concurrent children
// are not subtracted twice).
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	byLayer := map[string]*layerTime{}
	for i, s := range spans {
		if s.end < s.start {
			continue // never closed
		}
		lt := byLayer[s.layer]
		if lt == nil {
			lt = &layerTime{layer: s.layer}
			byLayer[s.layer] = lt
		}
		dur := s.end - s.start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered, edge time.Duration
		edge = s.start
		for _, k := range kids {
			ks, ke := spans[k].start, spans[k].end
			if ks < edge {
				ks = edge
			}
			if ke > s.end {
				ke = s.end
			}
			if ke > ks {
				covered += ke - ks
				edge = ke
			}
		}
		lt.spans++
		lt.total += dur
		lt.self += dur - covered
	}
	out := make([]layerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		out = append(out, *lt)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].self > out[b].self })
	return out
}

// writeSelfTimes prints the per-layer self-time table.
func (t *tracer) writeSelfTimes(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tspans\ttotal_s\tself_s\t")
	for _, lt := range t.selfTimes() {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t\n", lt.layer, lt.spans, lt.total.Seconds(), lt.self.Seconds())
	}
	tw.Flush()
}

// writeChrome writes the spans as Chrome trace JSON through the
// repository's own trace writer, so cmd/metriclint accepts the file.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	tr := metrics.NewTrace()
	tr.ProcessName(1, "dlpbench")
	named := map[int]bool{}
	for i, s := range spans {
		if s.end < s.start {
			continue
		}
		if !named[s.track] {
			named[s.track] = true
			tr.ThreadName(1, s.track, fmt.Sprintf("track %d", s.track))
		}
		us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
		args := map[string]any{"span": i, "parent": s.parent}
		if s.id != "" {
			args["id"] = s.id
		}
		tr.Complete(s.name, s.layer, 1, s.track, us(s.start), us(s.end-s.start), args)
	}
	return tr.WriteJSON(w)
}
