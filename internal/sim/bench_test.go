package sim

import (
	"testing"

	"repro/internal/config"
)

// stealStepBench builds a four-shard engine on an idle machine and
// returns one exchange step: the serial window open (nothing to bin),
// one steal phase over every span (workers claim from the shared
// cursor and visit idle components on every cycle of the window — with
// fast-forward on an idle window would not run a phase at all), and the
// serial O(spans) close — the fixed per-window cost of the
// phase-parallel engine. The first step, which warms per-worker state,
// has already run.
func stealStepBench(tb testing.TB) (step func()) {
	e, err := New(config.Baseline(), config.PolicyDLP, Options{Cores: 4, DisableFastForward: true})
	if err != nil {
		tb.Fatal(err)
	}
	pp := newPhasePool(e)
	e.pp = pp
	tb.Cleanup(func() {
		pp.stop()
		e.pp = nil
	})
	now := uint64(0)
	step = func() {
		t0 := now + 1
		now = e.windowEnd(t0)
		e.runWindow(t0, now)
	}
	step()
	return step
}

// BenchmarkStealScheduleStep measures the idle exchange step.
func BenchmarkStealScheduleStep(b *testing.B) {
	step := stealStepBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestStealScheduleStepAllocs pins the exchange step allocation-free at
// steady state: span lanes and per-worker scratch are reused, never
// rebuilt per cycle.
func TestStealScheduleStepAllocs(t *testing.T) {
	if avg := testing.AllocsPerRun(200, stealStepBench(t)); avg != 0 {
		t.Errorf("idle steal-schedule step allocates %.2f per window, want 0", avg)
	}
}
