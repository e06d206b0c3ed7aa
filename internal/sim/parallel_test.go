package sim

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
)

// coreCounts is the matrix the differential tests sweep: serial, the
// smallest parallel pool, odd counts off any power-of-two span boundary
// (the work-stealing schedule must be bit-identical there too), and
// more workers than this host has CPUs (which exercises the park path
// of the barrier).
var coreCounts = []int{1, 2, 3, 5, 7, 8}

// TestCoresDifferential is the determinism pin for phase parallelism:
// the same kernel run at every core count — with SelfCheck sweeping the
// activity accounting on every leg — must produce bit-identical stats,
// across scheduler/throttle variants and both policies. Run under
// -race this is also the data-race proof for the component phase.
func TestCoresDifferential(t *testing.T) {
	for name, cfg := range activityConfigs() {
		for _, policy := range []config.Policy{config.PolicyBaseline, config.PolicyDLP} {
			t.Run(name+"/"+policy.String(), func(t *testing.T) {
				var want *stats.Stats
				for _, cores := range coreCounts {
					st, err := RunOnce(context.Background(), cfg, policy,
						mixedKernel(23), Options{SelfCheck: true, Cores: cores})
					if err != nil {
						t.Fatalf("cores=%d: %v", cores, err)
					}
					if want == nil {
						want = st
						continue
					}
					if *st != *want {
						t.Errorf("cores=%d diverged:\nserial  %+v\nparallel %+v", cores, want, st)
					}
				}
			})
		}
	}
}

// TestCoresFastForwardDifferential repeats the fast-forward proof on a
// parallel engine: the per-shard partial minima must fold to the same
// jumps the serial sweep computed, so disabling the optimization
// changes nothing but the stepped-cycle count.
func TestCoresFastForwardDifferential(t *testing.T) {
	cfg := config.Baseline()
	run := func(cores int, disableFF bool) (uint64, stats.Stats) {
		e, err := New(cfg, config.PolicyDLP, Options{SelfCheck: true, Cores: cores})
		if err != nil {
			t.Fatal(err)
		}
		e.disableFastForward = disableFF
		var stepped uint64
		e.windowHook = func(t0, t1, _ uint64) { stepped += t1 - t0 + 1 }
		st, err := e.Run(context.Background(), mixedKernel(31))
		if err != nil {
			t.Fatal(err)
		}
		return stepped, *st
	}
	_, serial := run(1, false)
	for _, cores := range []int{2, 8} {
		ffSteps, ffStats := run(cores, false)
		fullSteps, fullStats := run(cores, true)
		if ffStats != serial || fullStats != serial {
			t.Errorf("cores=%d diverged from serial:\nserial %+v\n    ff %+v\n  full %+v",
				cores, serial, ffStats, fullStats)
		}
		if ffSteps >= fullSteps {
			t.Errorf("cores=%d: fast-forward stepped %d cycles, full run %d: nothing was skipped",
				cores, ffSteps, fullSteps)
		}
	}
}

// TestCoresClamped proves Options.Cores beyond the component count is
// clamped rather than spawning useless workers, and that the span list
// never exceeds the component count either.
func TestCoresClamped(t *testing.T) {
	cfg := config.Baseline()
	e, err := New(cfg, config.PolicyBaseline, Options{Cores: 1024})
	if err != nil {
		t.Fatal(err)
	}
	total := cfg.NumSMs + cfg.NumPartitions
	if e.workers != total {
		t.Errorf("1024 cores clamped to %d workers, want %d", e.workers, total)
	}
	if len(e.spans) != total {
		t.Errorf("1024 cores produced %d spans, want %d (every span non-empty)", len(e.spans), total)
	}
}

// TestPhaseHookCoverage proves the hook seam fires on every shard of
// every component phase — the property the fault-injection suite's
// worker-panic case relies on.
func TestPhaseHookCoverage(t *testing.T) {
	const cores = 4
	var perWorker [cores]atomic.Uint64
	_, err := RunOnce(context.Background(), config.Baseline(), config.PolicyDLP,
		mixedKernel(5), Options{
			Cores:     cores,
			PhaseHook: func(w int, _ uint64) { perWorker[w].Add(1) },
		})
	if err != nil {
		t.Fatal(err)
	}
	n := perWorker[0].Load()
	if n == 0 {
		t.Fatal("phase hook never fired")
	}
	for w := 1; w < cores; w++ {
		if got := perWorker[w].Load(); got != n {
			t.Errorf("worker %d saw %d phases, coordinator saw %d", w, got, n)
		}
	}
}

// TestPhaseWorkerPanicRethrown proves a panic on a pool worker is
// rethrown on the engine's goroutine as a typed *PhasePanicError
// carrying the worker's identity, panic value, and stack — the
// engine-level half of the runner's *JobPanicError guarantee.
func TestPhaseWorkerPanicRethrown(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("worker panic did not propagate")
		}
		pe, ok := v.(*PhasePanicError)
		if !ok {
			t.Fatalf("propagated as %T (%v), want *PhasePanicError", v, v)
		}
		if pe.Worker != 1 {
			t.Errorf("Worker = %d, want 1", pe.Worker)
		}
		if want := "injected phase fault"; pe.Value != want {
			t.Errorf("Value = %v, want %q", pe.Value, want)
		}
		if !strings.Contains(string(pe.Stack), "runSpans") {
			t.Errorf("stack does not show the steal loop:\n%s", pe.Stack)
		}
		var err error = pe
		if !errors.As(err, &pe) {
			t.Error("not reachable through errors.As")
		}
	}()
	_, _ = RunOnce(context.Background(), config.Baseline(), config.PolicyDLP,
		mixedKernel(5), Options{
			Cores: 2,
			PhaseHook: func(w int, cycle uint64) {
				if w == 1 && cycle >= 3 {
					panic("injected phase fault")
				}
			},
		})
}

// TestMakeSpans pins the span layout invariants the determinism
// argument rests on: for any component total and span count the spans
// are non-empty, contiguous, gap-free, and cover [0, total) in
// ascending order — so the merge's fixed span order is exactly
// ascending component order.
func TestMakeSpans(t *testing.T) {
	for _, total := range []int{1, 2, 3, 7, 12, 28, 28 + 1, 96} {
		for n := 1; n <= total; n++ {
			spans := makeSpans(total, n)
			if len(spans) != n {
				t.Fatalf("makeSpans(%d,%d): %d spans", total, n, len(spans))
			}
			next := 0
			for i, sp := range spans {
				if sp.lo != next {
					t.Fatalf("makeSpans(%d,%d): span %d starts at %d, want %d", total, n, i, sp.lo, next)
				}
				if sp.hi <= sp.lo {
					t.Fatalf("makeSpans(%d,%d): span %d empty [%d,%d)", total, n, i, sp.lo, sp.hi)
				}
				next = sp.hi
			}
			if next != total {
				t.Fatalf("makeSpans(%d,%d): covers [0,%d), want [0,%d)", total, n, next, total)
			}
		}
	}
}

// TestStealScheduleClaimsEachSpanOnce proves the work-stealing cursor's
// core property: in every component phase, every span is claimed exactly
// once — no span is skipped, none run twice — regardless of how the
// claims land on workers.
func TestStealScheduleClaimsEachSpanOnce(t *testing.T) {
	var phases atomic.Uint64
	e, err := New(config.Baseline(), config.PolicyDLP, Options{
		Cores: 5,
		PhaseHook: func(w int, _ uint64) {
			if w == 0 {
				phases.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	claims := make([]atomic.Uint64, len(e.spans))
	e.spanHook = func(span int, _ uint64) { claims[span].Add(1) }
	if _, err := e.Run(context.Background(), mixedKernel(17)); err != nil {
		t.Fatal(err)
	}
	if phases.Load() == 0 {
		t.Fatal("no component phase ran")
	}
	for si := range claims {
		if got := claims[si].Load(); got != phases.Load() {
			t.Errorf("span %d claimed %d times over %d phases", si, got, phases.Load())
		}
	}
}

// TestStealScheduleDeterminismOddCores is the focused odd-core pin: the
// same kernel at cores 3, 5 and 7 — span counts that never divide the
// component count evenly — must reproduce the serial stats exactly,
// with the invariant sweeps on.
func TestStealScheduleDeterminismOddCores(t *testing.T) {
	cfg := config.Baseline()
	ref, err := RunOnce(context.Background(), cfg, config.PolicyDLP,
		mixedKernel(41), Options{SelfCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{3, 5, 7} {
		st, err := RunOnce(context.Background(), cfg, config.PolicyDLP,
			mixedKernel(41), Options{SelfCheck: true, Cores: cores})
		if err != nil {
			t.Fatalf("cores=%d: %v", cores, err)
		}
		if *st != *ref {
			t.Errorf("cores=%d diverged:\nserial %+v\nstolen %+v", cores, ref, st)
		}
	}
}

// TestSpanPanicSurfacesThroughMerge injects a panic inside a span's run
// itself (not the phase hook), on whichever worker claims the span: the
// run must surface it promptly — as a *PhasePanicError when a pool
// worker claimed the span, or as the raw value when the coordinator did
// — and never wedge the barrier.
func TestSpanPanicSurfacesThroughMerge(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("span panic did not propagate")
		}
		if pe, ok := v.(*PhasePanicError); ok {
			if want := "injected span fault"; pe.Value != want {
				t.Errorf("Value = %v, want %q", pe.Value, want)
			}
			return
		}
		if v != "injected span fault" {
			t.Fatalf("propagated as %T (%v)", v, v)
		}
	}()
	e, err := New(config.Baseline(), config.PolicyDLP, Options{Cores: 3})
	if err != nil {
		t.Fatal(err)
	}
	e.spanHook = func(span int, cycle uint64) {
		if span == len(e.spans)-1 && cycle >= 3 {
			panic("injected span fault")
		}
	}
	_, _ = e.Run(context.Background(), mixedKernel(5))
	t.Fatal("run returned normally despite the injected panic")
}
