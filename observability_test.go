package dlpsim

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/runner"
)

// readExports re-parses a run's two exports with the readers every
// consumer of them uses: the JSONL metrics with its schema and arity
// checks, the Chrome trace with the phase validation Perfetto relies on.
func readExports(t *testing.T, jsonl, chrome io.Reader) (*metrics.SeriesSet, *metrics.TraceDoc) {
	t.Helper()
	set, err := metrics.ReadJSONL(jsonl)
	if err != nil {
		t.Fatalf("metrics export does not re-parse: %v", err)
	}
	doc, err := metrics.ReadChromeTrace(chrome)
	if err != nil {
		t.Fatalf("trace export does not re-parse: %v", err)
	}
	return set, doc
}

// checkJobExported fails unless the simulated job label is a metric
// series with at least one row, and the trace holds its run span.
func checkJobExported(t *testing.T, set *metrics.SeriesSet, doc *metrics.TraceDoc, label string) {
	t.Helper()
	if s := set.Series[label]; s == nil || len(s.Rows) == 0 {
		t.Errorf("job %q: no metric series with rows (series: %s)", label, strings.Join(set.Labels(), "; "))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Cat == "run" && ev.Name == label {
			return
		}
	}
	t.Errorf("job %q: no run span in the trace", label)
}

// TestObservabilityExports runs suites in-process the way paperfigs
// does with -metrics and -trace — a JSONL sink on the runner, a job
// tracer wrapping its events — and reads both exports back: Fig. 10 on
// BP,HS,BFS (BFS keeps a cache-insufficient app in the subset, so the
// headline geomeans are defined), the pd-bits sweep on BP, whose job
// labels ("BP under pd-bits=4") become series, and one job under every
// registered policy, so each scheme's metric namespace is checked.
func TestObservabilityExports(t *testing.T) {
	if testing.Short() {
		t.Skip("suite-scale export test skipped in -short mode")
	}
	figs := func(exp string, apps ...string) func(*Runner) error {
		return func(r *Runner) error {
			return WritePaperFigs(io.Discard, exp, false, apps, runSuitesOn(r))
		}
	}
	labels := func(apps []string, schemes []Scheme) []string {
		var out []string
		for _, app := range apps {
			for _, sc := range schemes {
				out = append(out, app+" under "+sc.Name)
			}
		}
		return out
	}
	var pdBits Sweep
	for _, sw := range Sweeps() {
		if sw.Name == "pd-bits" {
			pdBits = sw
		}
	}
	bp, err := WorkloadByAbbr("BP")
	if err != nil {
		t.Fatal(err)
	}
	var everyPolicy []string
	for _, p := range Policies() {
		everyPolicy = append(everyPolicy, "BP under "+p.String())
	}
	for _, leg := range []struct {
		name   string
		run    func(*Runner) error
		labels []string
	}{
		{"fig10", figs("fig10", "BP", "HS", "BFS"), labels([]string{"BP", "HS", "BFS"}, PaperSchemes())},
		{"pd-bits", figs("pd-bits", "BP"), labels([]string{"BP"}, pdBits.Schemes())},
		{"policies", func(r *Runner) error {
			_, err := RunSuite(context.Background(), r, []Workload{bp}, PolicySchemes())
			return err
		}, everyPolicy},
	} {
		t.Run(leg.name, func(t *testing.T) {
			cache := NewRunCache()
			var jsonl, chrome bytes.Buffer
			sink := metrics.NewJSONLSink(&jsonl)
			tracer := runner.NewJobTracer(cache)
			if err := leg.run(&Runner{Cache: cache, Metrics: sink, Events: tracer.Wrap(nil)}); err != nil {
				t.Fatal(err)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := tracer.WriteJSON(&chrome); err != nil {
				t.Fatal(err)
			}
			set, doc := readExports(t, &jsonl, &chrome)
			for _, label := range leg.labels {
				checkJobExported(t, set, doc, label)
			}
		})
	}
}
