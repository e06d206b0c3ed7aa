package sim_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/conform"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// reusePoint is one variant of one corpus case.
type reusePoint struct {
	c *conform.Case
	v conform.Variant
}

// runPoint resets e (a zero Engine is a new one) for p, sampled every 61
// cycles with the invariant sweeps on, runs it, and returns the
// normalized stats and the series.
func runPoint(t *testing.T, e *sim.Engine, p reusePoint) ([]byte, *metrics.Series) {
	t.Helper()
	cfg, pol, k, err := p.c.Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sink := metrics.NewMemorySink()
	opts := sim.Options{
		MaxCycles:          p.c.Spec.MaxCycles,
		DisableFastForward: p.v.DisableFastForward,
		SelfCheck:          true,
		Metrics:            &metrics.Config{Sink: sink, Every: 61, Label: "r"},
	}
	if err := e.Reset(cfg, pol, opts); err != nil {
		t.Fatal(err)
	}
	var st *stats.Stats
	if p.v.Streamed {
		src, err := p.c.Spec.BuildStream()
		if err != nil {
			t.Fatal(err)
		}
		st, err = e.RunStream(context.Background(), src)
	} else {
		st, err = e.Run(context.Background(), k)
	}
	if err != nil {
		t.Fatalf("%s[%s]: %v", p.c.Name, p.v.Name, err)
	}
	norm, err := conform.Normalize(st)
	if err != nil {
		t.Fatal(err)
	}
	return norm, sink.Snapshot().Series["r"]
}

// doomedConfig is the machine the serve benchmark's doomed jobs ask for:
// one MSHR, one miss-queue slot, and DRAM that takes 40000 cycles.
func doomedConfig() *config.Config {
	cfg := config.Baseline()
	cfg.L1DMSHRs = 1
	cfg.L1DMissQueue = 1
	cfg.DRAMRowHit = 40000
	cfg.DRAMRowMiss = 40000
	return cfg
}

// reuseKernel is a synth kernel big enough to leave requests in flight
// everywhere when a run is cut short.
func reuseKernel(seed uint64) *trace.Kernel {
	sp := workloads.SynthSpec{Seed: seed, Blocks: 32, WarpsPerBlock: 4, MemInsnsPerWarp: 48,
		FootprintLines: 4096, GatherPct: 50, StreamPct: 50}
	return sp.Kernel()
}

// TestResetMatchesNew is the reuse fence of the engine: one machine is
// Reset through every variant of every conformance case in a shuffled
// order, and between them through the runs that leave a machine in the
// worst state — cancelled with requests in flight, stopped by its cycle
// budget, failed by its frontend, on another config (the doomed
// one-MSHR, slow-DRAM machine) — and every case must give the normalized
// stats and the sampled rows, every column (pool.free included), that a
// new machine gives.
func TestResetMatchesNew(t *testing.T) {
	cases, err := conform.Discover(filepath.Join("..", "..", "testdata", "conform"), "")
	if err != nil {
		t.Fatal(err)
	}
	var points []reusePoint
	for _, c := range cases {
		for _, v := range c.Spec.Variants() {
			points = append(points, reusePoint{c, v})
		}
	}
	if len(points) < 30 {
		t.Fatalf("%d corpus points, want the whole corpus", len(points))
	}
	big := reuseKernel(40)
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	wide := trace.NewLoad(4, make([]addr.Addr, 99)) // more lanes than a warp has
	crafted := reuseKernel(41)
	for _, b := range crafted.Blocks {
		w := b.Warps[len(b.Warps)-1]
		w.Instrs = append(w.Instrs[:len(w.Instrs)-2:len(w.Instrs)-2], wide, w.Instrs[len(w.Instrs)-1])
	}
	disrupt := []struct {
		name string
		run  func(e *sim.Engine) error
		want func(error) bool
	}{
		{"cancelled", func(e *sim.Engine) error {
			if err := e.Reset(doomedConfig(), config.PolicyDLP, sim.Options{}); err != nil {
				return err
			}
			_, err := e.Run(cancelled, big)
			return err
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"out of cycles", func(e *sim.Engine) error {
			if err := e.Reset(config.Baseline(), config.PolicyCCWS, sim.Options{MaxCycles: 3000}); err != nil {
				return err
			}
			_, err := e.Run(ctx, big)
			return err
		}, func(err error) bool { var ce *sim.CycleLimitError; return errors.As(err, &ce) }},
		{"frontend error", func(e *sim.Engine) error {
			if err := e.Reset(config.Baseline(), config.PolicyReusePredictor, sim.Options{}); err != nil {
				return err
			}
			_, err := e.RunStream(ctx, trace.NewKernelStream(crafted))
			return err
		}, func(err error) bool { var ie *trace.InstrError; return errors.As(err, &ie) }},
		{"doomed config", func(e *sim.Engine) error {
			if err := e.Reset(doomedConfig(), config.PolicyGlobalProtection, sim.Options{}); err != nil {
				return err
			}
			k := workloads.SynthSpec{Seed: 42, Blocks: 1, WarpsPerBlock: 1, MemInsnsPerWarp: 2, FootprintLines: 4}.Kernel()
			_, err := e.Run(ctx, k)
			return err
		}, func(err error) bool { return err == nil }},
	}

	want := make([][]byte, len(points))
	wantRows := make([]*metrics.Series, len(points))
	for i, p := range points {
		want[i], wantRows[i] = runPoint(t, &sim.Engine{}, p)
	}
	e := &sim.Engine{}
	for i, pi := range rand.New(rand.NewSource(40)).Perm(len(points)) {
		if i%3 == 1 {
			d := disrupt[i/3%len(disrupt)]
			if err := d.run(e); !d.want(err) {
				t.Fatalf("%s run returned %v", d.name, err)
			}
		}
		p := points[pi]
		got, gotRows := runPoint(t, e, p)
		if !bytes.Equal(got, want[pi]) {
			t.Errorf("%s[%s] after %d resets: stats differ from a new machine's\n%s", p.c.Name, p.v.Name, i,
				conform.UnifiedDiff("new", "reset", want[pi], got))
		}
		if !reflect.DeepEqual(gotRows, wantRows[pi]) {
			t.Errorf("%s[%s] after %d resets: sampled rows differ from a new machine's", p.c.Name, p.v.Name, i)
			compareSeries(t, p.c.Name+"["+p.v.Name+"]", wantRows[pi], gotRows)
		}
	}
}

// TestRunsLetGoOfTheirTrace: a machine kept between jobs pins nothing
// of the last one's trace. A run stopped by its cycle budget leaves warps
// resident and blocks unadmitted, eager or streamed; once it returns and
// the caller drops its kernel, a collection must bring the live heap
// back to where it was before the kernel was built. Each leg runs twice
// on different kernels and measures the second, so the machine's own
// storage has already grown to what such a run needs.
func TestRunsLetGoOfTheirTrace(t *testing.T) {
	const slack = 512 << 10
	cfg := config.Baseline()
	e := &sim.Engine{}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, streamed := range []bool{false, true} {
		for round := uint64(0); round < 2; round++ {
			if err := e.Reset(cfg, config.PolicyDLP, sim.Options{MaxCycles: 20000}); err != nil {
				t.Fatal(err)
			}
			before := liveHeap()
			k := workloads.SynthSpec{Seed: 45 + round, Blocks: 128, WarpsPerBlock: 4, MemInsnsPerWarp: 48,
				FootprintLines: 4096, GatherPct: 50, StreamPct: 50}.Kernel()
			size := liveHeap() - before
			var err error
			if streamed {
				_, err = e.RunStream(context.Background(), trace.NewKernelStream(k))
			} else {
				_, err = e.Run(context.Background(), k)
			}
			var ce *sim.CycleLimitError
			if !errors.As(err, &ce) {
				t.Fatalf("streamed=%v: run returned %v, want a cycle-limit stop", streamed, err)
			}
			k = nil
			after := liveHeap()
			if round == 0 {
				continue
			}
			t.Logf("streamed=%v: kernel %d KB; live heap %d KB before it, %d KB after the run", streamed, size>>10, before>>10, after>>10)
			if size < 8*slack {
				t.Fatalf("a kernel of %d KB is too small to tell", size>>10)
			}
			if after > before+slack {
				t.Errorf("streamed=%v: the stopped run left %d KB more on the heap than before its %d KB kernel was built",
					streamed, (after-before)>>10, size>>10)
			}
		}
	}
}

// TestResetAllocatesLittle: resetting a machine to the config and policy
// it last ran allocates at most 5 % of what building it does, in bytes
// and in objects — the tag arrays, the VTAs, the PDPTs and everything
// else are re-initialised where they are.
func TestResetAllocatesLittle(t *testing.T) {
	cfg := config.Baseline()
	pol := config.PolicyDLP
	k := reuseKernel(43)
	var ms runtime.MemStats
	measure := func(f func()) (bytes, objects uint64) {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		b, o := ms.TotalAlloc, ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - b, ms.Mallocs - o
	}
	var e *sim.Engine
	newBytes, newObjects := measure(func() {
		var err error
		if e, err = sim.New(cfg, pol, sim.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	for round := 0; round < 3; round++ {
		if _, err := e.Run(context.Background(), k); err != nil {
			t.Fatal(err)
		}
		b, o := measure(func() {
			if err := e.Reset(cfg, pol, sim.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("round %d: New %d B in %d objects, Reset %d B in %d objects", round, newBytes, newObjects, b, o)
		if 20*b > newBytes || 20*o > newObjects {
			t.Errorf("round %d: Reset allocated %d B in %d objects; New takes %d B in %d, and 5 %% of it is the bound",
				round, b, o, newBytes, newObjects)
		}
	}
}

// BenchmarkNewMachine and BenchmarkResetMachine are what a job paid for
// its machine before the runner's slots kept one, and what it pays now:
// go test -run '^$' -bench Machine -benchmem ./internal/sim/
func BenchmarkNewMachine(b *testing.B) {
	cfg := config.Baseline()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.New(cfg, config.PolicyDLP, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResetMachine(b *testing.B) {
	cfg := config.Baseline()
	e, err := sim.New(cfg, config.PolicyDLP, sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Reset(cfg, config.PolicyDLP, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
