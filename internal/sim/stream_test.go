package sim

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// diffSynth is the differential test's kernel: small enough that the
// 7-policy × 3-core matrix stays fast, mixed enough (every pattern
// class plus stores and phase rotation) that a stream-window bug in
// any issue path would skew the stats.
var diffSynth = workloads.SynthSpec{
	Name: "stream-diff", Seed: 0x5eed,
	Blocks: 8, WarpsPerBlock: 12, MemInsnsPerWarp: 120, ComputeRun: 2,
	FootprintLines: 256, HotLines: 8, StorePct: 20,
	StreamPct: 3, StridePct: 2, GatherPct: 2, HotPct: 2, ConflictPct: 1,
	PhaseLen: 25, PhaseRotate: 2,
}

// TestStreamMatchesPrecomputedAllPolicies is the tentpole differential:
// for every registered policy and cores 1/2/8, running the lazily
// generated stream must produce bit-identical stats to running the
// eagerly materialized kernel, with the engine's sampled invariant
// sweeps enabled throughout.
func TestStreamMatchesPrecomputedAllPolicies(t *testing.T) {
	cfg := config.Baseline()
	k := diffSynth.Kernel()
	for _, pol := range policy.All() {
		ref, err := RunOnce(context.Background(), cfg, pol, k, Options{SelfCheck: true})
		if err != nil {
			t.Fatalf("eager %s: %v", pol, err)
		}
		for _, cores := range []int{1, 2, 8} {
			st, err := RunStreamOnce(context.Background(), cfg, pol, diffSynth.Stream(),
				Options{SelfCheck: true, Cores: cores})
			if err != nil {
				t.Fatalf("streamed %s cores=%d: %v", pol, cores, err)
			}
			if *st != *ref {
				t.Errorf("streamed %s cores=%d diverged from eager:\n  eager    %+v\n  streamed %+v",
					pol, cores, ref, st)
			}
		}
	}
}

// TestStreamMatchesPrecomputedTable2 spot-checks the registry
// generators' stream replay against their eager output on real
// Table 2 apps — one CS, one CI with gathers (BFS), one with shared
// per-block state (BP) — at scale 1 and a scaled variant.
func TestStreamMatchesPrecomputedTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-app differential in -short mode")
	}
	cfg := config.Baseline()
	for _, abbr := range []string{"SC", "BP", "BFS"} {
		spec, err := workloads.ByAbbr(abbr)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := RunOnce(context.Background(), cfg, config.PolicyDLP, spec.Generate(), Options{})
		if err != nil {
			t.Fatalf("eager %s: %v", abbr, err)
		}
		st, err := RunStreamOnce(context.Background(), cfg, config.PolicyDLP, spec.Stream(1), Options{Cores: 2})
		if err != nil {
			t.Fatalf("streamed %s: %v", abbr, err)
		}
		if *st != *ref {
			t.Errorf("%s: streamed diverged from eager:\n  eager    %+v\n  streamed %+v", abbr, ref, st)
		}
	}
	// Scaled variant: the stream and the scaled materialization must
	// agree too (the scaled kernel is not the paper suite's golden
	// trace, so this guards the scale plumbing itself).
	spec, err := workloads.ByAbbr("SC")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunOnce(context.Background(), cfg, config.PolicyDLP, spec.ScaledKernel(3), Options{})
	if err != nil {
		t.Fatalf("eager scaled SC: %v", err)
	}
	st, err := RunStreamOnce(context.Background(), cfg, config.PolicyDLP, spec.Stream(3), Options{})
	if err != nil {
		t.Fatalf("streamed scaled SC: %v", err)
	}
	if *st != *ref {
		t.Errorf("scaled SC: streamed diverged from eager:\n  eager    %+v\n  streamed %+v", ref, st)
	}
}

// TestStreamMultiKernel runs a MultiStream concatenating two apps and
// checks it against eagerly materializing the same concatenation.
func TestStreamMultiKernel(t *testing.T) {
	cfg := config.Baseline()
	sc, err := workloads.ByAbbr("SC")
	if err != nil {
		t.Fatal(err)
	}
	bp, err := workloads.ByAbbr("BP")
	if err != nil {
		t.Fatal(err)
	}
	multi := trace.NewMultiStream("SC+BP", sc.Stream(1), bp.Stream(1))
	ref, err := RunOnce(context.Background(), cfg, config.PolicyDLP, trace.Materialize(multi), Options{})
	if err != nil {
		t.Fatalf("eager multi: %v", err)
	}
	st, err := RunStreamOnce(context.Background(), cfg, config.PolicyDLP, multi, Options{})
	if err != nil {
		t.Fatalf("streamed multi: %v", err)
	}
	if *st != *ref {
		t.Errorf("multi-kernel stream diverged from eager:\n  eager    %+v\n  streamed %+v", ref, st)
	}
}

// heapHighWater runs one simulation sampling the live heap every 4096
// simulated cycles and returns the maximum HeapAlloc observed together
// with the run's stats.
func heapHighWater(t *testing.T, cfg *config.Config, run func(*Engine) (*stats.Stats, error)) (uint64, *stats.Stats) {
	t.Helper()
	e, err := New(cfg, config.PolicyBaseline, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var peak uint64
	var ms runtime.MemStats
	sample := func() {
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
	}
	e.windowHook = func(_, t1, _ uint64) {
		if t1&4095 == 0 {
			sample()
		}
	}
	st, err := run(e)
	if err != nil {
		t.Fatal(err)
	}
	sample()
	return peak, st
}

// TestStreamBoundsLiveHeap proves the streamed frontend's memory
// claim: on a scaled workload the streamed run's live-heap high-water
// must stay strictly below the eager run's, which necessarily holds
// the whole materialized trace for the run's duration.
func TestStreamBoundsLiveHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("heap profiling run in -short mode")
	}
	spec := workloads.SynthSpec{
		Name: "heap-probe", Seed: 7,
		Blocks: 16, WarpsPerBlock: 16, MemInsnsPerWarp: 200,
		FootprintLines: 512, StorePct: 10,
		StreamPct: 2, GatherPct: 1, HotPct: 1,
	}.Scaled(6)
	eagerPeak, ref := heapHighWater(t, config.Baseline(), func(e *Engine) (*stats.Stats, error) {
		k := spec.Kernel()
		k.PrecomputeCoalesced(config.Baseline().L1D.LineSize)
		return e.Run(context.Background(), k)
	})
	streamPeak, st := heapHighWater(t, config.Baseline(), func(e *Engine) (*stats.Stats, error) {
		return e.RunStream(context.Background(), spec.Stream())
	})
	if *st != *ref {
		t.Fatalf("heap-probe streamed diverged from eager:\n  eager    %+v\n  streamed %+v", ref, st)
	}
	if streamPeak >= eagerPeak {
		t.Errorf("streamed live-heap high-water %d B >= eager %d B; chunked refill should not hold the full trace",
			streamPeak, eagerPeak)
	}
	t.Logf("live-heap high-water: eager %.1f MB, streamed %.1f MB",
		float64(eagerPeak)/(1<<20), float64(streamPeak)/(1<<20))
}
