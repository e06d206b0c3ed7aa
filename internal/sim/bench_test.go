package sim

import (
	"testing"

	"repro/internal/config"
)

// stealStepBench builds a four-shard engine on an idle machine and
// returns one exchange step: the serial arrival binning (nothing to
// bin), one steal phase over every span (workers claim from the shared
// cursor, tick idle components, drain empty lanes), and the serial
// O(spans) merge — the fixed per-cycle cost of the phase-parallel
// engine. The first step, which warms span lanes and per-worker state,
// has already run.
func stealStepBench(tb testing.TB) (step func()) {
	e, err := New(config.Baseline(), config.PolicyDLP, Options{Cores: 4})
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
		now++
		e.step(now)
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
		t.Errorf("idle steal-schedule step allocates %.2f per cycle, want 0", avg)
	}
}
