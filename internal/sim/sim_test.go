package sim

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/prng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// streamKernel builds blocks of warps that each stream over a private
// range of lines with the given reuse: every line is loaded `touches`
// times in a row.
func streamKernel(name string, blocks, warpsPerBlock, linesPerWarp, touches int) *trace.Kernel {
	k := &trace.Kernel{Name: name}
	pc := uint32(0)
	base := 0
	for b := 0; b < blocks; b++ {
		blk := &trace.Block{}
		for w := 0; w < warpsPerBlock; w++ {
			wt := &trace.WarpTrace{}
			for l := 0; l < linesPerWarp; l++ {
				line := base + l
				for t := 0; t < touches; t++ {
					wt.Instrs = append(wt.Instrs,
						trace.NewLoad(pc%8, []addr.Addr{addr.Addr(line * 128)}))
				}
				wt.Instrs = append(wt.Instrs, trace.NewCompute(100, 4, 32))
			}
			base += linesPerWarp
			blk.Warps = append(blk.Warps, wt)
		}
		k.Blocks = append(k.Blocks, blk)
	}
	return k
}

func mustRun(t *testing.T, cfg *config.Config, policy config.Policy, k *trace.Kernel) *stats.Stats {
	t.Helper()
	st, err := RunOnce(context.Background(), cfg, policy, k, Options{})
	if err != nil {
		t.Fatalf("RunOnce(%s, %s): %v", policy, k.Name, err)
	}
	return st
}

func TestTinyKernelCompletes(t *testing.T) {
	k := streamKernel("tiny", 2, 2, 4, 2)
	st := mustRun(t, config.Baseline(), config.PolicyBaseline, k)
	if st.Cycles == 0 || st.Instructions == 0 {
		t.Fatalf("empty stats: %+v", st)
	}
	// 2 blocks x 2 warps x 4 lines x (2 loads + 1 compute) = 48 warp insns.
	if st.WarpInsns != 48 {
		t.Errorf("WarpInsns = %d, want 48", st.WarpInsns)
	}
	// Each line loaded twice: second load hits.
	if st.L1DAccesses != 32 || st.L1DHits != 16 {
		t.Errorf("accesses/hits = %d/%d, want 32/16", st.L1DAccesses, st.L1DHits)
	}
	if err := st.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	k1 := streamKernel("d", 4, 4, 8, 3)
	k2 := streamKernel("d", 4, 4, 8, 3)
	for _, p := range policy.All() {
		a := mustRun(t, config.Baseline(), p, k1)
		b := mustRun(t, config.Baseline(), p, k2)
		if *a != *b {
			t.Errorf("%v: nondeterministic stats:\n%+v\nvs\n%+v", p, a, b)
		}
	}
}

func TestInvalidKernelRejected(t *testing.T) {
	if _, err := RunOnce(context.Background(), config.Baseline(), config.PolicyBaseline, &trace.Kernel{Name: "x"}, Options{}); err == nil {
		t.Error("empty kernel accepted")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := config.Baseline()
	cfg.NumSMs = 0
	if _, err := New(cfg, config.PolicyBaseline, Options{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestCycleLimitEnforced(t *testing.T) {
	k := streamKernel("long", 8, 4, 64, 4)
	_, err := RunOnce(context.Background(), config.Baseline(), config.PolicyBaseline, k, Options{MaxCycles: 50})
	if err == nil {
		t.Error("runaway kernel not reported")
	}
	var cl *CycleLimitError
	if !errors.As(err, &cl) {
		t.Errorf("cycle-budget overrun not typed: %v", err)
	} else if cl.MaxCycles != 50 {
		t.Errorf("CycleLimitError.MaxCycles = %d, want 50", cl.MaxCycles)
	}
}

func TestOversizedBlockRejectedAtLaunch(t *testing.T) {
	// A block with more warps than one SM's residency limit can never be
	// scheduled; launching it used to wedge the machine forever (found by
	// the differential fuzzer). It must fail fast with a typed error.
	cfg := config.Baseline()
	cfg.MaxWarpsPerSM = 2
	k := streamKernel("oversized", 1, 3, 2, 1)
	_, err := RunOnce(context.Background(), cfg, config.PolicyBaseline, k, Options{})
	var le *LaunchError
	if !errors.As(err, &le) {
		t.Fatalf("oversized block not rejected with LaunchError: %v", err)
	}
	if le.Kernel != "oversized" {
		t.Errorf("LaunchError.Kernel = %q", le.Kernel)
	}
}

func TestBlocksDistributedAcrossSMs(t *testing.T) {
	// 32 independent single-warp blocks over 16 SMs: at least two SMs'
	// worth of parallelism must appear as far fewer cycles than serial.
	wide := streamKernel("wide", 32, 1, 16, 1)
	narrow := streamKernel("narrow", 1, 1, 16*32, 1)
	ws := mustRun(t, config.Baseline(), config.PolicyBaseline, wide)
	ns := mustRun(t, config.Baseline(), config.PolicyBaseline, narrow)
	if ws.Cycles*4 > ns.Cycles*3 {
		t.Errorf("wide grid %d cycles vs narrow %d: no multi-SM speedup", ws.Cycles, ns.Cycles)
	}
}

// TestThrashingMicrobenchmark builds the paper's core scenario: more
// distinct lines per set than associativity with real reuse. DLP must
// beat baseline IPC, and a doubled cache must beat baseline too.
func TestThrashingMicrobenchmark(t *testing.T) {
	// Each SM runs one warp cycling over 8 lines that collide in one set
	// (linear index makes collisions predictable). Reuse distance 7
	// exceeds the 4-way associativity — pure LRU never hits — but stays
	// within the VTA's reach (TDA + VTA = 8), so DLP learns protection.
	cfg := config.Baseline()
	cfg.L1D.Hashed = false
	k := &trace.Kernel{Name: "thrash"}
	for b := 0; b < 16; b++ {
		blk := &trace.Block{}
		wt := &trace.WarpTrace{}
		for rep := 0; rep < 150; rep++ {
			for l := 0; l < 8; l++ {
				// Stride of Sets*lineSize pins one set; each block gets
				// a private line range.
				line := addr.Addr((uint64(b*8+l) * uint64(cfg.L1D.Sets)) * 128)
				wt.Instrs = append(wt.Instrs, trace.NewLoad(uint32(l%4), []addr.Addr{line}))
			}
		}
		wt.Instrs = append(wt.Instrs, trace.NewCompute(99, 4, 32))
		blk.Warps = append(blk.Warps, wt)
		k.Blocks = append(k.Blocks, blk)
	}

	base := mustRun(t, cfg, config.PolicyBaseline, k)
	dlp := mustRun(t, cfg, config.PolicyDLP, k)
	big := mustRun(t, config.L1D32KB(), config.PolicyBaseline, k)

	if dlp.IPC() <= base.IPC() {
		t.Errorf("DLP IPC %.4f not above baseline %.4f on a thrashing kernel",
			dlp.IPC(), base.IPC())
	}
	_ = big
	if dlp.L1DHitRate() <= base.L1DHitRate() {
		t.Errorf("DLP hit rate %.4f not above baseline %.4f",
			dlp.L1DHitRate(), base.L1DHitRate())
	}
	if dlp.L1DEvictions >= base.L1DEvictions {
		t.Errorf("DLP evictions %d not below baseline %d", dlp.L1DEvictions, base.L1DEvictions)
	}
}

// TestCacheFriendlyKernelUnharmed: when reuse distances fit the cache,
// DLP must track baseline closely (the paper's CS guarantee, §6.1.1).
func TestCacheFriendlyKernelUnharmed(t *testing.T) {
	k := streamKernel("friendly", 16, 4, 8, 4)
	base := mustRun(t, config.Baseline(), config.PolicyBaseline, k)
	dlp := mustRun(t, config.Baseline(), config.PolicyDLP, k)
	ratio := dlp.IPC() / base.IPC()
	if ratio < 0.95 {
		t.Errorf("DLP lost %.1f%% IPC on a cache-friendly kernel", (1-ratio)*100)
	}
}

// TestBackgroundTrafficAccounted: the §6.4 background traffic adds
// exactly 60 flits per 1000 thread instructions to the crossbar total
// and none to the L1D data flits.
func TestBackgroundTrafficAccounted(t *testing.T) {
	k := streamKernel("bg", 2, 2, 4, 1)
	st, err := RunOnce(context.Background(), config.Baseline(), config.PolicyBaseline, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(60 * float64(st.Instructions) / 1000)
	if want == 0 {
		t.Fatalf("%d instructions add no background flits; the kernel is too small to test", st.Instructions)
	}
	if got := st.ICNTFlits - st.ICNTDataFlits; got != want {
		t.Errorf("background flits = %d (%d total - %d data), want %d for %d instructions",
			got, st.ICNTFlits, st.ICNTDataFlits, want, st.Instructions)
	}
}

// TestRunCancelled: a cancelled context aborts the cycle loop promptly
// with the cause attached.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	k := streamKernel("cancel", 8, 4, 64, 4)
	_, err := RunOnce(ctx, config.Baseline(), config.PolicyBaseline, k, Options{})
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
}

// TestRandomKernelsAllPolicies drives randomly generated small kernels
// through every policy and checks the machine-wide invariants: the run
// completes, accounting balances, and a repeat run is bit-identical.
func TestRandomKernelsAllPolicies(t *testing.T) {
	f := func(seed uint64, blocks, warps, instrs uint8) bool {
		nb := int(blocks)%4 + 1
		nw := int(warps)%6 + 1
		ni := int(instrs)%24 + 1
		build := func() *trace.Kernel {
			rng := prng.New(seed)
			k := &trace.Kernel{Name: "fuzz"}
			for b := 0; b < nb; b++ {
				blk := &trace.Block{}
				for w := 0; w < nw; w++ {
					wt := &trace.WarpTrace{}
					for i := 0; i < ni; i++ {
						switch rng.Intn(4) {
						case 0:
							wt.Instrs = append(wt.Instrs,
								trace.NewCompute(uint32(100+rng.Intn(4)), 1+rng.Intn(8), 1+rng.Intn(32)))
						case 1:
							wt.Instrs = append(wt.Instrs,
								trace.NewStore(uint32(rng.Intn(8)), randAddrs(rng, 1+rng.Intn(32))))
						default:
							wt.Instrs = append(wt.Instrs,
								trace.NewLoad(uint32(rng.Intn(8)), randAddrs(rng, 1+rng.Intn(32))))
						}
					}
					blk.Warps = append(blk.Warps, wt)
				}
				k.Blocks = append(k.Blocks, blk)
			}
			return k
		}
		for _, p := range policy.All() {
			a, err := RunOnce(context.Background(), config.Baseline(), p, build(), Options{MaxCycles: 2_000_000})
			if err != nil {
				t.Logf("policy %v: %v", p, err)
				return false
			}
			if err := a.CheckConservation(); err != nil {
				t.Logf("policy %v: %v", p, err)
				return false
			}
			b, err := RunOnce(context.Background(), config.Baseline(), p, build(), Options{MaxCycles: 2_000_000})
			if err != nil || *a != *b {
				t.Logf("policy %v: nondeterministic or failed rerun", p)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func randAddrs(rng *prng.Source, n int) []addr.Addr {
	out := make([]addr.Addr, n)
	for i := range out {
		out[i] = addr.Addr(rng.Intn(1 << 20))
	}
	return out
}

// TestLRRSchedulerEndToEnd runs a kernel under the alternative scheduler.
func TestLRRSchedulerEndToEnd(t *testing.T) {
	cfg := config.Baseline()
	cfg.Scheduler = config.SchedLRR
	k := streamKernel("lrr", 4, 4, 8, 2)
	st := mustRun(t, cfg, config.PolicyDLP, k)
	if err := st.CheckConservation(); err != nil {
		t.Error(err)
	}
	if st.WarpInsns == 0 {
		t.Error("no instructions issued under LRR")
	}
}

// TestWarpThrottleEndToEnd: throttling reduces thrashing on the
// microbenchmark (CCWS-style effect) while completing correctly.
func TestWarpThrottleEndToEnd(t *testing.T) {
	k := streamKernel("thr", 4, 8, 8, 3)
	free := mustRun(t, config.Baseline(), config.PolicyBaseline, k)
	cfg := config.Baseline()
	cfg.MaxActiveWarps = 2
	thr := mustRun(t, cfg, config.PolicyBaseline, k)
	if err := thr.CheckConservation(); err != nil {
		t.Error(err)
	}
	if thr.WarpInsns != free.WarpInsns {
		t.Errorf("throttled run issued %d warp insns vs %d", thr.WarpInsns, free.WarpInsns)
	}
}
