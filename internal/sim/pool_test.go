package sim

import (
	"context"
	"testing"

	"repro/internal/config"
	"repro/internal/workloads"
)

// TestConsumedStoresComeHome runs two kernels that differ only in length,
// half their memory instructions stores, and compares what a whole run
// allocates. A store's life ends in the L2 partition that consumes it;
// if the partition did not hand it back to the engine's pool, every
// store would cost the issuing SM a fresh request and the longer kernel
// would allocate thousands more times than the shorter one. Returned,
// the pool levels off at the machine's peak in-flight count and both
// runs allocate about the same.
func TestConsumedStoresComeHome(t *testing.T) {
	cfg := config.Baseline()
	allocs := func(memInsns int) float64 {
		k := workloads.SynthSpec{
			Name: "store-recycle", Seed: 31,
			Blocks: 16, WarpsPerBlock: 4, MemInsnsPerWarp: memInsns, ComputeRun: 1,
			FootprintLines: 512, StorePct: 50, StreamPct: 1,
		}.Kernel()
		if err := k.Pack(cfg.L1D.LineSize, cfg.WarpSize); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := RunOnce(context.Background(), cfg, config.PolicyBaseline, k, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(32), allocs(256)
	t.Logf("allocations per run: %.0f with 32 memory instructions per warp, %.0f with 256", short, long)
	if long-short >= 64 {
		t.Errorf("the 256-instruction run allocates %.0f more times than the 32-instruction one, want fewer than 64: consumed stores are not coming home",
			long-short)
	}
}
