package metrics

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestRegistrySampleReadsThrough(t *testing.T) {
	r := NewRegistry()
	var hits, misses uint64
	depth := 3
	r.Counter("l1d.hits", &hits)
	r.Counter("l1d.misses", &misses)
	r.IntGauge("mshr.depth", func() int { return depth })
	r.Seal()

	if got := r.Names(); !reflect.DeepEqual(got, []string{"l1d.hits", "l1d.misses", "mshr.depth"}) {
		t.Fatalf("Names() = %v", got)
	}
	hits, misses = 10, 2
	if got := r.Sample(); !reflect.DeepEqual(append([]uint64(nil), got...), []uint64{10, 2, 3}) {
		t.Fatalf("Sample() = %v", got)
	}
	// The registry reads through the pointer: later increments are seen
	// without re-registration, and the row buffer is reused.
	hits = 25
	depth = -1 // negative gauges clamp to zero
	first := r.Sample()
	second := r.Sample()
	if &first[0] != &second[0] {
		t.Fatal("Sample must reuse its row buffer")
	}
	if !reflect.DeepEqual(append([]uint64(nil), second...), []uint64{25, 2, 0}) {
		t.Fatalf("Sample() = %v", second)
	}
}

func TestRegistrySampleZeroAllocs(t *testing.T) {
	r := NewRegistry()
	vals := make([]uint64, 32)
	for i := range vals {
		i := i
		if i%2 == 0 {
			r.Counter(fmt.Sprintf("c%d", i), &vals[i])
		} else {
			r.IntGauge(fmt.Sprintf("g%d", i), func() int { return int(vals[i]) })
		}
	}
	r.Seal()
	avg := testing.AllocsPerRun(200, func() {
		vals[0]++
		r.Sample()
	})
	if avg != 0 {
		t.Errorf("Sample allocates %.2f per call, want 0", avg)
	}
}

func TestRegistryMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	var v uint64
	mustPanic("duplicate name", func() {
		r := NewRegistry()
		r.Counter("x", &v)
		r.Counter("x", &v)
	})
	mustPanic("nil counter", func() { NewRegistry().Counter("x", nil) })
	mustPanic("nil gauge", func() { NewRegistry().Gauge("x", nil) })
	mustPanic("empty name", func() { NewRegistry().Counter("", &v) })
	mustPanic("sample before seal", func() {
		r := NewRegistry()
		r.Counter("x", &v)
		r.Sample()
	})
	mustPanic("register after seal", func() {
		r := NewRegistry()
		r.Seal()
		r.Counter("x", &v)
	})
}

func TestConfigDefaults(t *testing.T) {
	var c *Config
	if c.Enabled() {
		t.Fatal("nil config must be disabled")
	}
	if got := c.Interval(); got != DefaultEvery {
		t.Fatalf("nil config Interval() = %d", got)
	}
	c = &Config{}
	if c.Enabled() {
		t.Fatal("config without sink must be disabled")
	}
	c = &Config{Sink: NewMemorySink(), Every: 128}
	if !c.Enabled() || c.Interval() != 128 {
		t.Fatalf("Enabled=%v Interval=%d", c.Enabled(), c.Interval())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Begin("CFD under DLP(s)", []string{"a", "b"})
	s.Begin("MM under Baseline", []string{"x"})
	row := []uint64{1, 2}
	s.Row("CFD under DLP(s)", 4096, row)
	row[0], row[1] = 7, 8 // sink must have consumed the previous values
	s.Row("CFD under DLP(s)", 8192, row)
	s.Row("MM under Baseline", 4096, []uint64{9})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	ss, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := ss.Labels(); !reflect.DeepEqual(got, []string{"CFD under DLP(s)", "MM under Baseline"}) {
		t.Fatalf("Labels() = %v", got)
	}
	cfd := ss.Series["CFD under DLP(s)"]
	want := []SampleRow{{4096, []uint64{1, 2}}, {8192, []uint64{7, 8}}}
	if !reflect.DeepEqual(cfd.Rows, want) {
		t.Fatalf("rows = %v, want %v", cfd.Rows, want)
	}
}

func TestJSONLReaderRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"row before header":  `{"series":"x","cycle":1,"v":[1]}`,
		"wrong arity":        `{"series":"x","names":["a","b"]}` + "\n" + `{"series":"x","cycle":1,"v":[1]}`,
		"missing series":     `{"names":["a"]}`,
		"header no names":    `{"series":"x","names":[]}`,
		"row without values": `{"series":"x","names":["a"]}` + "\n" + `{"series":"x","cycle":1}`,
		"not json":           `not json`,
		"schema change": `{"series":"x","names":["a"]}` + "\n" +
			`{"series":"x","names":["a","b"]}`,
	}
	for name, in := range cases {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// A repeated identical header (two simulated jobs that share a
	// label) is fine.
	ok := `{"series":"x","names":["a"]}` + "\n" + `{"series":"x","names":["a"]}` + "\n" + `{"series":"x","cycle":1,"v":[5]}`
	ss, err := ReadJSONL(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("repeated header: %v", err)
	}
	if len(ss.Series["x"].Rows) != 1 {
		t.Fatalf("rows = %v", ss.Series["x"].Rows)
	}
}

// TestSinksConcurrent drives both sinks from many goroutines so the
// race detector (make check runs this package with -race) proves the
// locking discipline. The runner samples concurrent simulations into
// one sink, so this is the production access pattern.
func TestSinksConcurrent(t *testing.T) {
	var buf bytes.Buffer
	js := NewJSONLSink(&buf)
	ms := NewMemorySink()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			series := fmt.Sprintf("sim%d", g)
			js.Begin(series, []string{"a", "b"})
			ms.Begin(series, []string{"a", "b"})
			row := make([]uint64, 2)
			for c := uint64(1); c <= 50; c++ {
				row[0], row[1] = c, c*2
				js.Row(series, c*64, row)
				ms.Row(series, c*64, row)
			}
		}(g)
	}
	wg.Wait()
	if err := js.Flush(); err != nil {
		t.Fatal(err)
	}
	ss, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	mem := ms.Snapshot()
	for g := 0; g < 8; g++ {
		series := fmt.Sprintf("sim%d", g)
		got, want := ss.Series[series], mem.Series[series]
		if got == nil || want == nil {
			t.Fatalf("%s missing (jsonl=%v mem=%v)", series, got != nil, want != nil)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s: jsonl and memory sinks disagree", series)
		}
		if len(got.Rows) != 50 {
			t.Fatalf("%s: %d rows", series, len(got.Rows))
		}
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTrace()
	tr.ProcessName(1, "runner")
	tr.ThreadName(1, 3, "job 3")
	tr.Complete("CFD under DLP(s)", "run", 1, 3, 100, 2500, map[string]any{"cycles": 12345})
	tr.Instant("cache hit", "cache", 1, 3, 2600, nil)
	tr.Counter("jobs", 1, 2600, map[string]any{"running": 2, "done": 1})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doc, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != tr.Len() || tr.Len() != 5 {
		t.Fatalf("events = %d, want 5", len(doc.TraceEvents))
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
}

func TestReadChromeTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"empty doc":     `{"traceEvents":[]}`,
		"unknown phase": `{"traceEvents":[{"name":"x","ph":"Z","ts":0,"pid":1,"tid":1}]}`,
		"unnamed event": `{"traceEvents":[{"ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`,
		"negative dur":  `{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":-5,"pid":1,"tid":1}]}`,
		"not json":      `[[`,
	}
	for name, in := range cases {
		if _, err := ReadChromeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
