package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// JSONLSink streams sampled rows as JSON Lines. The file interleaves
// header lines and row lines, one JSON object per line:
//
//	{"series":"CFD under DLP(s)","names":["icnt.flits",...]}
//	{"series":"CFD under DLP(s)","cycle":4096,"v":[125,...]}
//
// Interleaving (rather than grouping by series) lets many concurrent
// simulations share one file; ReadJSONL reassembles per-series order,
// which is deterministic because each simulation emits its own rows in
// cycle order. Row encoding is hand-rolled over a reused buffer so the
// steady-state cost per row is the write, not garbage.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte
	// esc caches the JSON-escaped form of each series label announced
	// via Begin, so rows don't re-escape the label every sample.
	esc map[string]string
}

// NewJSONLSink returns a sink writing to w. Call Flush before closing
// the underlying file.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 1<<16), esc: make(map[string]string)}
}

// Begin writes the header line for a series.
func (s *JSONLSink) Begin(series string, names []string) {
	hdr, err := json.Marshal(struct {
		Series string   `json:"series"`
		Names  []string `json:"names"`
	}{series, names})
	if err != nil { // strings only: cannot fail
		panic(err)
	}
	lit, _ := json.Marshal(series)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.esc[series] = string(lit)
	s.w.Write(hdr)
	s.w.WriteByte('\n')
}

// Row writes one sampled row. The values slice is consumed before Row
// returns, satisfying the Sink reuse contract.
func (s *JSONLSink) Row(series string, cycle uint64, values []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lit, ok := s.esc[series]
	if !ok {
		b, _ := json.Marshal(series)
		lit = string(b)
		s.esc[series] = lit
	}
	b := s.buf[:0]
	b = append(b, `{"series":`...)
	b = append(b, lit...)
	b = append(b, `,"cycle":`...)
	b = strconv.AppendUint(b, cycle, 10)
	b = append(b, `,"v":[`...)
	for i, v := range values {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, v, 10)
	}
	b = append(b, "]}\n"...)
	s.buf = b
	s.w.Write(b)
}

// Flush drains the buffered writer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// SampleRow is one sampled row of a series.
type SampleRow struct {
	Cycle  uint64
	Values []uint64
}

// Series is the reassembled time series of one simulation.
type Series struct {
	Label string
	Names []string
	Rows  []SampleRow
}

// SeriesSet maps series label to its reassembled series.
type SeriesSet struct {
	Series map[string]*Series
}

// Labels returns the series labels in sorted order.
func (ss *SeriesSet) Labels() []string {
	out := make([]string, 0, len(ss.Series))
	for l := range ss.Series {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// ReadJSONL parses a metrics JSONL stream, validating that every row
// belongs to an announced series and carries exactly one value per
// declared name.
func ReadJSONL(r io.Reader) (*SeriesSet, error) {
	ss := &SeriesSet{Series: make(map[string]*Series)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec struct {
			Series string    `json:"series"`
			Names  []string  `json:"names"`
			Cycle  *uint64   `json:"cycle"`
			V      *[]uint64 `json:"v"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("metrics jsonl line %d: %w", lineNo, err)
		}
		if rec.Series == "" {
			return nil, fmt.Errorf("metrics jsonl line %d: missing series", lineNo)
		}
		if rec.Cycle == nil { // header line
			if len(rec.Names) == 0 {
				return nil, fmt.Errorf("metrics jsonl line %d: header without names", lineNo)
			}
			if s, ok := ss.Series[rec.Series]; ok {
				// Two simulated jobs that share a label announce one
				// series twice; the schema must not change mid-stream.
				if len(s.Names) != len(rec.Names) {
					return nil, fmt.Errorf("metrics jsonl line %d: series %q re-announced with %d names, had %d",
						lineNo, rec.Series, len(rec.Names), len(s.Names))
				}
				continue
			}
			ss.Series[rec.Series] = &Series{Label: rec.Series, Names: rec.Names}
			continue
		}
		if rec.V == nil {
			return nil, fmt.Errorf("metrics jsonl line %d: row without values", lineNo)
		}
		s, ok := ss.Series[rec.Series]
		if !ok {
			return nil, fmt.Errorf("metrics jsonl line %d: row for unannounced series %q", lineNo, rec.Series)
		}
		if len(*rec.V) != len(s.Names) {
			return nil, fmt.Errorf("metrics jsonl line %d: row has %d values, series %q declares %d names",
				lineNo, len(*rec.V), rec.Series, len(s.Names))
		}
		s.Rows = append(s.Rows, SampleRow{Cycle: *rec.Cycle, Values: *rec.V})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ss, nil
}

// MemorySink collects rows in memory, copying every row (so it is safe
// against the sampler's buffer reuse). It is safe for concurrent use
// and is the sink the differential tests compare across engine
// configurations.
type MemorySink struct {
	mu  sync.Mutex
	set SeriesSet
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink {
	return &MemorySink{set: SeriesSet{Series: make(map[string]*Series)}}
}

// Begin implements Sink.
func (m *MemorySink) Begin(series string, names []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.set.Series[series]; ok {
		return
	}
	m.set.Series[series] = &Series{Label: series, Names: append([]string(nil), names...)}
}

// Row implements Sink.
func (m *MemorySink) Row(series string, cycle uint64, values []uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.set.Series[series]
	if !ok {
		s = &Series{Label: series}
		m.set.Series[series] = s
	}
	s.Rows = append(s.Rows, SampleRow{Cycle: cycle, Values: append([]uint64(nil), values...)})
}

// Snapshot returns the collected series set. The caller must not
// mutate it while sampling continues.
func (m *MemorySink) Snapshot() *SeriesSet {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &m.set
}
