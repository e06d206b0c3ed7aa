package sim_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/conform"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
)

// quantumRun runs one corpus case on an engine with full-length or
// one-cycle windows and returns its stats and, when sampled, its series.
func quantumRun(t *testing.T, c *conform.Case, opts sim.Options, unit bool) (*stats.Stats, *metrics.Series) {
	t.Helper()
	cfg, pol, k, err := c.Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts.MaxCycles = c.Spec.MaxCycles
	var sink *metrics.MemorySink
	if opts.Metrics != nil {
		sink = metrics.NewMemorySink()
		opts.Metrics = &metrics.Config{Sink: sink, Every: opts.Metrics.Every, Label: "q"}
	}
	e, err := sim.New(cfg, pol, opts)
	if err != nil {
		t.Fatal(err)
	}
	if unit {
		e.UnitQuantum()
	}
	st, err := e.Run(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if sink == nil {
		return st, nil
	}
	return st, sink.Snapshot().Series["q"]
}

// layoutColumn reports the metric columns that describe the engine's
// own schedule rather than the simulated machine, and so may differ
// between window lengths: the crossbar's lane-segment gauges, and the
// request pools' free levels (a consumed store goes home when its window
// closes; how many requests an SM had to allocate meanwhile depends on
// how long the window was). The per-span busy counters are not among
// them: a cycle is busy or not whatever window it was simulated in.
func layoutColumn(name string) bool {
	return strings.HasPrefix(name, "phase.icnt.") || strings.HasSuffix(name, ".pool.free")
}

// TestQuantumDifferential holds the window loop to the per-cycle
// schedule it replaces: over the conformance corpus, an engine with
// one-cycle windows and one with ICNTLatency+1-cycle windows must
// produce byte-identical stats — and, sampled, identical rows at
// identical cycles in every simulation-domain column — with fast-forward
// on and off, at 1, 2 and 3 cores, with metrics on and off. The sampling
// period is prime, so windows get cut where no quantum would end.
func TestQuantumDifferential(t *testing.T) {
	cases, err := conform.Discover(filepath.Join("..", "..", "testdata", "conform"), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("no corpus cases found")
	}
	for i, c := range cases {
		if testing.Short() && i%8 != 0 {
			continue
		}
		t.Run(c.Name, func(t *testing.T) {
			for _, ffOff := range []bool{false, true} {
				for _, cores := range []int{1, 2, 3} {
					for _, sampled := range []bool{false, true} {
						name := fmt.Sprintf("ff-off=%v cores=%d metrics=%v", ffOff, cores, sampled)
						opts := sim.Options{Cores: cores, DisableFastForward: ffOff, SelfCheck: true}
						if sampled {
							opts.Metrics = &metrics.Config{Every: 61}
						}
						want, wantRows := quantumRun(t, c, opts, true)
						got, gotRows := quantumRun(t, c, opts, false)
						if *got != *want {
							t.Errorf("%s: stats differ\nunit windows %+v\nfull windows %+v", name, want, got)
						}
						if sampled {
							compareSeries(t, name, wantRows, gotRows)
						}
					}
				}
			}
		})
	}
}

func compareSeries(t *testing.T, name string, want, got *metrics.Series) {
	t.Helper()
	if len(want.Names) != len(got.Names) || len(want.Rows) != len(got.Rows) {
		t.Errorf("%s: series shape %dx%d, want %dx%d", name,
			len(got.Rows), len(got.Names), len(want.Rows), len(want.Names))
		return
	}
	for r := range want.Rows {
		if want.Rows[r].Cycle != got.Rows[r].Cycle {
			t.Errorf("%s: row %d at cycle %d, want %d", name, r, got.Rows[r].Cycle, want.Rows[r].Cycle)
			return
		}
		for col, colName := range want.Names {
			if w, g := want.Rows[r].Values[col], got.Rows[r].Values[col]; w != g && !layoutColumn(colName) {
				t.Errorf("%s: cycle %d column %s = %d, want %d", name, want.Rows[r].Cycle, colName, g, w)
				return
			}
		}
	}
}

// TestBudgetOffTheWindowGrid pins the last window of a run that hits
// its budget. For every MaxCycles from well before a kernel's drain
// cycle to just past it — none of them where a 13-cycle window would end
// on its own — one-cycle and full-length windows must agree on the
// outcome: the same *CycleLimitError, or the same stats (a run that
// drains between two quiescence probes reports the first cycle past the
// budget, whatever the window length).
func TestBudgetOffTheWindowGrid(t *testing.T) {
	cases, err := conform.Discover(filepath.Join("..", "..", "testdata", "conform"), "dlp-mix")
	if err != nil || len(cases) != 1 {
		t.Fatalf("corpus case dlp-mix: %v (%d found)", err, len(cases))
	}
	cfg, pol, k, err := cases[0].Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.RunOnce(context.Background(), cfg, pol, k, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	span, coreCounts := uint64(45), []int{1, 2}
	if testing.Short() {
		span, coreCounts = 20, []int{2}
	}
	finished, limited := 0, 0
	for budget := ref.Cycles - span; budget <= ref.Cycles+2; budget++ {
		for _, ffOff := range []bool{false, true} {
			for _, cores := range coreCounts {
				run := func(unit bool) (*stats.Stats, error) {
					e, err := sim.New(cfg, pol, sim.Options{
						MaxCycles: budget, Cores: cores, DisableFastForward: ffOff, SelfCheck: true,
					})
					if err != nil {
						t.Fatal(err)
					}
					if unit {
						e.UnitQuantum()
					}
					return e.Run(context.Background(), k)
				}
				want, wantErr := run(true)
				got, gotErr := run(false)
				name := fmt.Sprintf("budget %d (drain at %d) ff-off=%v cores=%d", budget, ref.Cycles, ffOff, cores)
				var limit *sim.CycleLimitError
				switch {
				case wantErr != nil:
					if !errors.As(wantErr, &limit) {
						t.Fatalf("%s: %v", name, wantErr)
					}
					if gotErr == nil || gotErr.Error() != wantErr.Error() {
						t.Errorf("%s: full windows returned %v, unit windows %v", name, gotErr, wantErr)
					}
					limited++
				case gotErr != nil:
					t.Errorf("%s: full windows returned %v, unit windows finished", name, gotErr)
				case *got != *want:
					t.Errorf("%s: stats differ\nunit windows %+v\nfull windows %+v", name, want, got)
				default:
					finished++
				}
			}
		}
	}
	if finished == 0 || limited == 0 {
		t.Fatalf("%d runs finished, %d hit the budget: the range proves nothing", finished, limited)
	}
}
