package sim

import (
	"testing"

	"repro/internal/config"
)

// windowStepBench builds an engine on an idle machine and returns one
// window step: the open (nothing to bin), the component phase over
// every partition and SM (with fast-forward off, so each idle component
// is visited on every cycle of the window — with it on an idle window
// would not run a phase at all), and the close — the fixed per-window
// cost of the run loop. The first step has already run.
func windowStepBench(tb testing.TB) (step func()) {
	e, err := New(config.Baseline(), config.PolicyDLP, Options{DisableFastForward: true})
	if err != nil {
		tb.Fatal(err)
	}
	now := uint64(0)
	step = func() {
		t0 := now + 1
		now = e.windowEnd(t0)
		e.runWindow(t0, now)
	}
	step()
	return step
}

// BenchmarkWindowStep measures the idle window step.
func BenchmarkWindowStep(b *testing.B) {
	step := windowStepBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestWindowStepAllocs pins the window step allocation-free at steady
// state: the lanes and inboxes are reused, never rebuilt per window.
func TestWindowStepAllocs(t *testing.T) {
	if avg := testing.AllocsPerRun(200, windowStepBench(t)); avg != 0 {
		t.Errorf("idle window step allocates %.2f per window, want 0", avg)
	}
}
