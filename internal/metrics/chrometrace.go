package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// TraceEvent is one entry of the Chrome trace_event format ("JSON
// Object Format" variant), the schema Perfetto and chrome://tracing
// load directly. Timestamps and durations are microseconds.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceDoc is the top-level trace_event JSON object.
type TraceDoc struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
}

// Trace accumulates trace events. All methods are safe for concurrent
// use; events are written out in insertion order (the format does not
// require sorting).
type Trace struct {
	mu     sync.Mutex
	events []TraceEvent
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

func (t *Trace) append(ev TraceEvent) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Complete records an "X" (complete) event: a span [ts, ts+dur] on
// track (pid, tid).
func (t *Trace) Complete(name, cat string, pid, tid int, ts, dur float64, args map[string]any) {
	t.append(TraceEvent{Name: name, Cat: cat, Ph: "X", Ts: ts, Dur: dur, Pid: pid, Tid: tid, Args: args})
}

// Instant records an "i" (instant) event at ts on track (pid, tid).
func (t *Trace) Instant(name, cat string, pid, tid int, ts float64, args map[string]any) {
	t.append(TraceEvent{Name: name, Cat: cat, Ph: "i", Ts: ts, Pid: pid, Tid: tid, Args: args})
}

// Counter records a "C" (counter) event: values is a name→number map
// rendered as a stacked area chart by the viewers.
func (t *Trace) Counter(name string, pid int, ts float64, values map[string]any) {
	t.append(TraceEvent{Name: name, Ph: "C", Ts: ts, Pid: pid, Args: values})
}

// ProcessName records the "M" metadata event naming a pid's track.
func (t *Trace) ProcessName(pid int, name string) {
	t.append(TraceEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": name}})
}

// ThreadName records the "M" metadata event naming a (pid, tid) track.
func (t *Trace) ThreadName(pid, tid int, name string) {
	t.append(TraceEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
		Args: map[string]any{"name": name}})
}

// Len returns the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteJSON serializes the trace as a trace_event JSON object, ready
// for Perfetto (ui.perfetto.dev → "Open trace file") or
// chrome://tracing.
func (t *Trace) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	doc := TraceDoc{TraceEvents: t.events, DisplayTimeUnit: "ms"}
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// ReadChromeTrace parses and validates a trace_event JSON document:
// every event must carry a known phase and a name (metadata and
// counter events included), and "X" events must not have negative
// durations. The root tests hold every exported trace to it
// (TestObservabilityExports, TestRecordReplayCLI).
func ReadChromeTrace(r io.Reader) (*TraceDoc, error) {
	var doc TraceDoc
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("chrome trace: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return nil, fmt.Errorf("chrome trace: no events")
	}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X", "B", "E", "i", "I", "C", "M":
		default:
			return nil, fmt.Errorf("chrome trace: event %d has unknown phase %q", i, ev.Ph)
		}
		if ev.Name == "" {
			return nil, fmt.Errorf("chrome trace: event %d has no name", i)
		}
		if ev.Ph == "X" && ev.Dur < 0 {
			return nil, fmt.Errorf("chrome trace: event %d (%s) has negative duration", i, ev.Name)
		}
	}
	return &doc, nil
}
