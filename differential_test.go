package dlpsim

import (
	"context"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
	"repro/internal/trace"
)

// diffKernel is a small hand-built kernel that exercises every policy
// decision point: each warp interleaves a hot line (short reuse
// distance — protection-worthy) with a private stream (no reuse —
// bypass-worthy), stores ride along to drive the write-evict path, and
// a line shared by all warps forces MSHR merges. Small enough for
// `go test -race -short`, rich enough that the seven policies produce
// genuinely different cache behavior.
func diffKernel() *trace.Kernel {
	k := &trace.Kernel{Name: "xpolicy-diff"}
	shared := addr.Addr(1 << 22)
	for b := 0; b < 2; b++ {
		blk := &trace.Block{}
		for w := 0; w < 4; w++ {
			wt := &trace.WarpTrace{}
			hot := addr.Addr((b*4 + w) * 128)
			streamBase := addr.Addr(1<<16 + (b*4+w)<<13)
			for i := 0; i < 24; i++ {
				stream := streamBase + addr.Addr(i*128)
				wt.Instrs = append(wt.Instrs,
					trace.NewLoad(0, []addr.Addr{hot}),
					trace.NewLoad(1, []addr.Addr{stream}),
					trace.NewCompute(2, 4, 32),
				)
				switch i % 8 {
				case 3:
					wt.Instrs = append(wt.Instrs, trace.NewStore(3, []addr.Addr{stream}))
				case 6:
					wt.Instrs = append(wt.Instrs, trace.NewLoad(4, []addr.Addr{shared}))
				}
			}
			blk.Warps = append(blk.Warps, wt)
		}
		k.Blocks = append(k.Blocks, blk)
	}
	return k
}

// TestCrossPolicyDifferential runs every registered policy on the same
// kernel three ways with the sampled invariant sweeps on — the default
// engine, one with fast-forward disabled, and the streamed frontend fed
// the same kernel — and requires bit-identical statistics. Under `-race`
// (the CI differential job) it runs each policy's hooks under the race
// detector. A final check confirms the policies actually diverge from
// the baseline, so a registry mis-wiring that silently ran everything as
// Baseline would not pass as seven vacuous equalities.
func TestCrossPolicyDifferential(t *testing.T) {
	cfg := BaselineConfig()
	k := diffKernel()
	results := make(map[Policy]*Stats)
	for _, p := range Policies() {
		ref, err := sim.RunOnce(context.Background(), cfg, p, k, sim.Options{SelfCheck: true})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		ffOff, err := sim.RunOnce(context.Background(), cfg, p, k, sim.Options{SelfCheck: true, DisableFastForward: true})
		if err != nil {
			t.Fatalf("%v ff=off: %v", p, err)
		}
		streamed, err := sim.RunStreamOnce(context.Background(), cfg, p, trace.NewKernelStream(k), sim.Options{SelfCheck: true})
		if err != nil {
			t.Fatalf("%v streamed: %v", p, err)
		}
		for _, v := range []struct {
			name string
			st   *Stats
		}{{"ff=off", ffOff}, {"streamed", streamed}} {
			if *v.st != *ref {
				t.Errorf("%v: reference and %s stats differ\nreference: %+v\n%s: %+v", p, v.name, ref, v.name, v.st)
			}
		}
		if ref.Instructions == 0 || ref.L1DAccesses == 0 {
			t.Errorf("%v: kernel did no work: %+v", p, ref)
		}
		results[p] = ref
	}
	diverged := 0
	for _, p := range Policies() {
		if p != Baseline && *results[p] != *results[Baseline] {
			diverged++
		}
	}
	if diverged == 0 {
		t.Error("no policy diverged from Baseline on a policy-sensitive kernel")
	}
}
