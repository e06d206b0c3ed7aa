package sim

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TestRunSurfacesPackError: an instruction no packed op can hold fails
// the run with a typed error on both frontends — up front on the eager
// one, at the refill that reaches it on the streamed one — instead of
// simulating a wrapped-around latency.
func TestRunSurfacesPackError(t *testing.T) {
	good := func() *trace.WarpTrace {
		return &trace.WarpTrace{Instrs: []trace.Instr{
			trace.NewCompute(1, 4, 32), trace.NewLoad(2, []addr.Addr{0x1000}), trace.NewCompute(3, 4, 32),
		}}
	}
	bad := good()
	bad.Instrs = append(bad.Instrs, trace.NewCompute(4, trace.MaxOpLatency+1, 32))
	k := &trace.Kernel{Name: "oversized", Blocks: []*trace.Block{
		{Warps: []*trace.WarpTrace{good(), good()}},
		{Warps: []*trace.WarpTrace{good(), bad}},
	}}
	cfg := config.Baseline()
	if err := k.Validate(cfg.WarpSize); err != nil {
		t.Fatalf("the kernel must pass Validate for this test to reach packing: %v", err)
	}
	check := func(how string, st *stats.Stats, err error) {
		t.Helper()
		var pe *trace.PackError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: stats %v, error %v; want a *trace.PackError", how, st, err)
		}
		if pe.Field != "latency" || pe.Insn != 3 || pe.Value != trace.MaxOpLatency+1 {
			t.Errorf("%s: PackError %+v, want latency %d at insn 3", how, *pe, int64(trace.MaxOpLatency+1))
		}
	}
	for _, cores := range []int{1, 2} {
		st, err := RunOnce(context.Background(), cfg, config.PolicyDLP, k, Options{Cores: cores})
		check("Run", st, err)
		st, err = RunStreamOnce(context.Background(), cfg, config.PolicyDLP, trace.NewKernelStream(k), Options{Cores: cores})
		check("RunStream", st, err)
	}
}

// TestFrontendsRefuseTheSameInstructions: an instruction that breaks one
// of Kernel.Validate's per-instruction rules fails the run with the same
// *trace.InstrError whichever frontend meets it — the eager one up
// front, the streamed one (an in-memory stream, or a DLPSTRM1 file that
// carries the instruction under a correct checksum) at the refill that
// reaches it — and never runs to completion or panics in the LD/ST unit.
func TestFrontendsRefuseTheSameInstructions(t *testing.T) {
	cfg := config.Baseline()
	wide := make([]addr.Addr, 99)
	cases := []struct {
		name string
		in   trace.Instr
		file bool // the instruction survives a round trip through the file format
	}{
		{"zero-lane load", trace.NewLoad(4, nil), true},
		{"latency 0", trace.NewCompute(4, 0, 32), true},
		{"compute wider than the warp", trace.NewCompute(4, 4, 99), true},
		{"load wider than the warp", trace.NewLoad(4, wide), true},
		// The file decoder cannot size an instruction of unknown kind, so
		// such a file is a *trace.FormatError before any op is built.
		{"unknown kind", trace.Instr{Kind: trace.Kind(9), PC: 4, ActiveLanes: 32}, false},
	}
	for _, tc := range cases {
		k := &trace.Kernel{Name: "crafted", Blocks: []*trace.Block{{Warps: []*trace.WarpTrace{{Instrs: []trace.Instr{
			trace.NewCompute(1, 4, 32), trace.NewLoad(2, []addr.Addr{0x1000}), tc.in, trace.NewCompute(5, 4, 32),
		}}}}}}
		if err := k.Validate(cfg.WarpSize); err == nil {
			t.Fatalf("%s: Kernel.Validate accepts the kernel", tc.name)
		}
		var want *trace.InstrError
		_, err := RunOnce(context.Background(), cfg, config.PolicyDLP, k, Options{})
		if !errors.As(err, &want) || want.Insn != 2 {
			t.Fatalf("%s: eager run returned %v; want a *trace.InstrError at insn 2", tc.name, err)
		}
		srcs := map[string]trace.Stream{"stream": trace.NewKernelStream(k)}
		if tc.file {
			path := filepath.Join(t.TempDir(), "crafted.dlpstrm")
			if err := trace.WriteFile(path, trace.NewKernelStream(k), 0); err != nil {
				t.Fatal(err)
			}
			f, err := trace.Open(path) // the checksum is right: Open has no complaint
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			srcs["file"] = f
		}
		for how, src := range srcs {
			st, err := RunStreamOnce(context.Background(), cfg, config.PolicyDLP, src, Options{})
			var got *trace.InstrError
			if !errors.As(err, &got) {
				t.Errorf("%s/%s: stats %v, error %v; want a *trace.InstrError", tc.name, how, st, err)
			} else if *got != *want {
				t.Errorf("%s/%s: %v, eager frontend said %v", tc.name, how, got, want)
			}
		}
	}
}

// TestWideWarpsEagerMatchesStreamed runs 64- and 1024-lane kernels
// (config admits WarpSize up to 1024) through both frontends with the
// invariant sweeps on: lane counts and per-op line counts beyond a byte
// must survive packing, and the two frontends must still agree.
func TestWideWarpsEagerMatchesStreamed(t *testing.T) {
	for _, lanes := range []int{64, 1024} {
		cfg := config.Baseline()
		cfg.WarpSize = lanes
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		k := &trace.Kernel{Name: "wide"}
		for b := 0; b < 4; b++ {
			blk := &trace.Block{}
			for w := 0; w < 3; w++ {
				base := addr.Addr((b*3 + w) << 24)
				seq, spread := make([]addr.Addr, lanes), make([]addr.Addr, lanes)
				for i := range seq {
					seq[i] = base + addr.Addr(i%32*4)
					spread[i] = base + addr.Addr(0x100000+i*256) // one line per lane
				}
				wt := &trace.WarpTrace{}
				for rep := 0; rep < 3; rep++ {
					wt.Instrs = append(wt.Instrs,
						trace.NewCompute(1, 4, lanes), trace.NewLoad(2, seq),
						trace.NewLoad(3, spread), trace.NewStore(4, spread[:lanes/2]))
				}
				blk.Warps = append(blk.Warps, wt)
			}
			k.Blocks = append(k.Blocks, blk)
		}
		ref, err := RunOnce(context.Background(), cfg, config.PolicyDLP, k, Options{SelfCheck: true})
		if err != nil {
			t.Fatalf("lanes=%d eager: %v", lanes, err)
		}
		want := uint64(4 * 3 * 3 * (3*lanes + lanes/2))
		if ref.Instructions != want {
			t.Errorf("lanes=%d: %d thread instructions, want %d", lanes, ref.Instructions, want)
		}
		st, err := RunStreamOnce(context.Background(), cfg, config.PolicyDLP, trace.NewKernelStream(k),
			Options{SelfCheck: true, Cores: 2})
		if err != nil {
			t.Fatalf("lanes=%d streamed: %v", lanes, err)
		}
		if *st != *ref {
			t.Errorf("lanes=%d: streamed diverged from eager:\n  eager    %+v\n  streamed %+v", lanes, ref, st)
		}
	}
}

// TestConcurrentEnginesShareOnePackedKernel runs one precomputed kernel
// through four engines at once (under -race in `make check`): the packed
// program is read-only after PrecomputeCoalesced. Two of the engines use
// another line size and repack — in Run, and again at admission wherever
// another engine has republished since; each builds its own immutable
// programs, and nobody's results may change.
func TestConcurrentEnginesShareOnePackedKernel(t *testing.T) {
	k := diffSynth.Kernel()
	cfgs := []*config.Config{config.Baseline(), config.Baseline(), config.Baseline(), config.Baseline()}
	cfgs[2].L1D.LineSize, cfgs[2].L2.LineSize = 64, 64
	cfgs[3].L1D.LineSize, cfgs[3].L2.LineSize = 64, 64
	want := make([]*stats.Stats, len(cfgs))
	for i, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		st, err := RunOnce(context.Background(), cfg, config.PolicyDLP, diffSynth.Kernel(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = st
	}
	k.PrecomputeCoalesced(cfgs[0].L1D.LineSize)
	got := make([]*stats.Stats, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = RunOnce(context.Background(), cfgs[i], config.PolicyDLP, k, Options{SelfCheck: true})
		}(i)
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("engine %d: %v", i, errs[i])
		}
		if *got[i] != *want[i] {
			t.Errorf("engine %d (line size %d) diverged when sharing the kernel:\n  alone  %+v\n  shared %+v",
				i, cfgs[i].L1D.LineSize, want[i], got[i])
		}
	}
}
