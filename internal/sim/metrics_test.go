package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// runSampled runs one kernel with a MemorySink attached and returns
// the collected series plus the final stats.
func runSampled(t *testing.T, policy config.Policy, noFF bool, every uint64) (*metrics.Series, *stats.Stats) {
	t.Helper()
	k := streamKernel("metrics", 4, 4, 48, 3)
	sink := metrics.NewMemorySink()
	e, err := New(config.Baseline(), policy, Options{
		Metrics: &metrics.Config{Sink: sink, Every: every, Label: "diff"},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.opts.DisableFastForward = noFF
	st, err := e.Run(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	s := sink.Snapshot().Series["diff"]
	if s == nil {
		t.Fatal("no series collected")
	}
	return s, st
}

// TestMetricsSeriesIdentity is the acceptance differential: the sampled
// metric series must be byte-identical with fast-forward force-disabled.
// Fast-forwarded windows get their boundary rows attributed to the
// skipped cycles, so the slow path and the fast path produce the same
// rows at the same cycles.
func TestMetricsSeriesIdentity(t *testing.T) {
	for _, policy := range []config.Policy{config.PolicyBaseline, config.PolicyDLP} {
		ref, refSt := runSampled(t, policy, false, 64)
		if len(ref.Rows) < 4 {
			t.Fatalf("%v: only %d rows sampled; kernel too short for a meaningful differential", policy, len(ref.Rows))
		}
		last := uint64(0)
		for _, r := range ref.Rows {
			if r.Cycle <= last {
				t.Fatalf("%v: non-increasing sample cycles %d after %d", policy, r.Cycle, last)
			}
			last = r.Cycle
		}
		got, gotSt := runSampled(t, policy, true, 64)
		if !reflect.DeepEqual(ref.Names, got.Names) {
			t.Fatalf("%v/noff: metric names differ", policy)
		}
		if !reflect.DeepEqual(ref.Rows, got.Rows) {
			n := len(ref.Rows)
			if len(got.Rows) != n {
				t.Fatalf("%v/noff: %d rows, reference has %d", policy, len(got.Rows), n)
			}
			for i := range ref.Rows {
				if !reflect.DeepEqual(ref.Rows[i], got.Rows[i]) {
					t.Fatalf("%v/noff: row %d differs:\n ref %v\n got %v",
						policy, i, ref.Rows[i], got.Rows[i])
				}
			}
		}
		if *gotSt != *refSt {
			t.Fatalf("%v/noff: final stats differ", policy)
		}
	}
}

// TestMetricsSamplingDoesNotPerturb pins the observer-effect guarantee:
// final stats with sampling enabled equal the unsampled run exactly.
func TestMetricsSamplingDoesNotPerturb(t *testing.T) {
	k := streamKernel("perturb", 4, 4, 48, 3)
	for _, policy := range []config.Policy{config.PolicyBaseline, config.PolicyDLP} {
		plain := mustRun(t, config.Baseline(), policy, k)
		_, sampled := runSampled(t, policy, false, 32)
		if *sampled != *plain {
			t.Fatalf("%v: sampling changed the results:\nplain   %+v\nsampled %+v", policy, plain, sampled)
		}
	}
}

// TestMetricsRowsCoverSkippedWindows asserts fast-forward attribution
// actually happens: the fast run must emit rows at boundaries it never
// stepped. We prove it by checking the fast run stepped fewer cycles
// than it emitted boundary rows for.
func TestMetricsRowsCoverSkippedWindows(t *testing.T) {
	k := streamKernel("skipcover", 1, 2, 16, 2)
	sink := metrics.NewMemorySink()
	e, err := New(config.Baseline(), config.PolicyDLP, Options{
		Metrics: &metrics.Config{Sink: sink, Every: 16, Label: "skip"},
	})
	if err != nil {
		t.Fatal(err)
	}
	stepped := map[uint64]bool{}
	e.windowHook = func(t0, t1, _ uint64) {
		for c := t0; c <= t1; c++ {
			stepped[c] = true
		}
	}
	if _, err := e.Run(context.Background(), k); err != nil {
		t.Fatal(err)
	}
	rows := sink.Snapshot().Series["skip"].Rows
	attributed := 0
	for _, r := range rows {
		if !stepped[r.Cycle] {
			attributed++
		}
	}
	if attributed == 0 {
		t.Fatal("no rows were attributed to fast-forwarded cycles; the attribution path never ran")
	}
}

// TestMetricsSeriesEndsAtDrain pins the end-of-run row: the last row
// carries the drain cycle, and the L1D access total in it matches the
// final stats.
func TestMetricsSeriesEndsAtDrain(t *testing.T) {
	s, st := runSampled(t, config.PolicyDLP, false, 0) // default period >> run length
	lastRow := s.Rows[len(s.Rows)-1]
	if lastRow.Cycle != st.Cycles {
		t.Fatalf("last row at cycle %d, run drained at %d", lastRow.Cycle, st.Cycles)
	}
	var accesses uint64
	for i, name := range s.Names {
		if strings.HasSuffix(name, ".l1d.accesses") {
			accesses += lastRow.Values[i]
		}
	}
	if accesses != st.L1DAccesses {
		t.Fatalf("final row sums %d L1D accesses, stats say %d", accesses, st.L1DAccesses)
	}
}

// TestMetricsDefaultLabel covers direct engine use without a label.
func TestMetricsDefaultLabel(t *testing.T) {
	sink := metrics.NewMemorySink()
	k := streamKernel("nolabel", 1, 1, 4, 1)
	_, err := RunOnce(context.Background(), config.Baseline(), config.PolicyBaseline, k,
		Options{Metrics: &metrics.Config{Sink: sink}})
	if err != nil {
		t.Fatal(err)
	}
	if sink.Snapshot().Series["sim"] == nil {
		t.Fatal(`unlabeled config must fall back to series "sim"`)
	}
}
