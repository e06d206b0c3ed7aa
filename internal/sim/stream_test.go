package sim

import (
	"context"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/sm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// diffSynth is the differential test's kernel: small enough that the
// 7-policy sweep stays fast, mixed enough (every pattern
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
// for every registered policy, running the lazily generated stream must
// produce bit-identical stats to running the eagerly materialized
// kernel, with the engine's sampled invariant sweeps enabled throughout.
func TestStreamMatchesPrecomputedAllPolicies(t *testing.T) {
	cfg := config.Baseline()
	k := diffSynth.Kernel()
	for _, pol := range policy.All() {
		ref, err := RunOnce(context.Background(), cfg, pol, k, Options{SelfCheck: true})
		if err != nil {
			t.Fatalf("eager %s: %v", pol, err)
		}
		st, err := RunStreamOnce(context.Background(), cfg, pol, diffSynth.Stream(), Options{SelfCheck: true})
		if err != nil {
			t.Fatalf("streamed %s: %v", pol, err)
		}
		if *st != *ref {
			t.Errorf("streamed %s diverged from eager:\n  eager    %+v\n  streamed %+v", pol, ref, st)
		}
	}
}

// TestStreamMatchesPrecomputedTable2 checks every registry generator's
// stream replay against its eager output at scale 1 — dlpsim and RunApp
// stream every Table 2 app, and this is what says their counters are
// the eager suite's — and one scaled variant.
func TestStreamMatchesPrecomputedTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-app differential in -short mode")
	}
	cfg := config.Baseline()
	for _, abbr := range workloads.Abbrs() {
		spec, err := workloads.ByAbbr(abbr)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := RunOnce(context.Background(), cfg, config.PolicyDLP, spec.Generate(), Options{})
		if err != nil {
			t.Fatalf("eager %s: %v", abbr, err)
		}
		st, err := RunStreamOnce(context.Background(), cfg, config.PolicyDLP, spec.Stream(1), Options{})
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
	k, err := trace.Materialize(multi)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunOnce(context.Background(), cfg, config.PolicyDLP, k, Options{})
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

// TestStreamedWarpsHoldOnlyOps pins the streamed frontend's memory
// contract at full occupancy: CFD's stream is one 48-warp block per SM
// of the baseline machine. A resident warp keeps its packed ops, not
// its instructions — every window is filled into its SM's one scratch
// chunk — so (a) no resident warp's chunk holds instruction or address
// capacity at any sample, and (b) the live heap the run adds over the
// engine it starts from, averaged over the resident warps, stays under
// residentWarpBytes. A chunk that kept a full instruction window,
// 64 instrs plus 2048 lane addresses (~20 KB), breaks both.
func TestStreamedWarpsHoldOnlyOps(t *testing.T) {
	// The measured high-water is ~3.5 KB per warp (~2.2 KB before the
	// second, read-ahead ops chunk), under half of this bound; with a
	// full window per warp it is ~23 KB.
	const residentWarpBytes = 8 << 10
	cfg := config.Baseline()
	spec, err := workloads.ByAbbr("CFD")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(cfg, config.PolicyBaseline, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := liveHeap()
	var peak, next uint64
	samples, resident := 0, 0
	e.windowHook = func(_, t1, _ uint64) {
		if t1 < next {
			return
		}
		next = t1 + 1<<14
		samples++
		n := 0
		for i, s := range e.sms {
			for _, c := range residentChunkCaps(s) {
				if c != [2]int{} {
					t.Fatalf("cycle %d: a resident warp of SM %d holds a chunk with %d instrs and %d addrs of capacity, want ops only",
						t1, i, c[0], c[1])
				}
				n++
			}
		}
		if samples == 1 {
			resident = n
		}
		peak = max(peak, liveHeap())
	}
	if _, err := e.RunStream(context.Background(), spec.Stream(1)); err != nil {
		t.Fatal(err)
	}
	if want := cfg.NumSMs * cfg.MaxWarpsPerSM; resident != want {
		t.Fatalf("%d warps resident after admission, want a full machine of %d", resident, want)
	}
	perWarp := (peak - min(peak, base)) / uint64(resident)
	t.Logf("live heap: %.1f MB at start, high-water %.1f MB over %d samples: %d B per resident warp",
		float64(base)/(1<<20), float64(peak)/(1<<20), samples, perWarp)
	if perWarp >= residentWarpBytes {
		t.Errorf("live-heap high-water is %d B per resident warp, want < %d", perWarp, residentWarpBytes)
	}
}

// residentChunkCaps returns, for each resident warp of s whose cursor
// holds a chunk, that chunk's instruction and address capacity, summed
// with those of the chunk its read-ahead request packs the next window
// into. SM slots, cursor chunks and requests are private to their
// packages, so it reads them by reflection; a renamed field fails the
// caller loudly.
func residentChunkCaps(s *sm.SM) (caps [][2]int) {
	slots := reflect.ValueOf(s).Elem().FieldByName("slots")
	for i := 0; i < slots.Len(); i++ {
		w := slots.Index(i)
		if w.IsNil() {
			continue
		}
		cur := w.Elem().FieldByName("cur")
		ch := cur.FieldByName("chunk")
		if ch.IsNil() {
			continue
		}
		c := [2]int{ch.Elem().FieldByName("Instrs").Cap(), ch.Elem().FieldByName("Addrs").Cap()}
		if next := cur.FieldByName("next"); !next.IsNil() {
			nch := next.Elem().FieldByName("chunk").Elem()
			c[0] += nch.FieldByName("Instrs").Cap()
			c[1] += nch.FieldByName("Addrs").Cap()
		}
		caps = append(caps, c)
	}
	return caps
}

// TestStreamedRefillsDoNotAllocate pins a streamed run's refills
// allocation-free once its warps are resident, with the read-ahead
// helper filling windows beside the engine: every window comes from a
// DLPSTRM1 file into reused chunks, and the helper's requests, queues
// and chunks are recycled. The run is one wave (a block per SM), so no
// admission falls inside the measured middle third. Every window holds
// the same one-line ops, so a chunk's warm-up (its read buffer's
// high-water, a Lines arena) happens at its first fill; a loaded host
// can push the helper's first fill, which sets up its scratch chunk,
// into the measured third, but not a chunk's later ones. The bound is
// one allocation per hundred refills, not zero, because the runtime
// allocates a few times of its own there: the run loop's park
// (time.Sleep) may grow a P's timer heap, and a loaded host makes it
// start threads. One allocation per refill is over two thousand.
func TestStreamedRefillsDoNotAllocate(t *testing.T) {
	cfg := config.Baseline()
	const warps, instrs = 8, 64 * 60
	k := &trace.Kernel{Name: "refills"}
	for b := 0; b < cfg.NumSMs; b++ {
		blk := &trace.Block{}
		for w := 0; w < warps; w++ {
			wt := &trace.WarpTrace{}
			base := addr.Addr((b*warps + w) * instrs * 128)
			for i := 0; i < instrs; i++ {
				at := base + addr.Addr(i*128)
				switch i % 4 {
				case 1:
					wt.Instrs = append(wt.Instrs, trace.NewLoad(1, []addr.Addr{at}))
				case 2:
					wt.Instrs = append(wt.Instrs, trace.NewStore(2, []addr.Addr{at}))
				default:
					wt.Instrs = append(wt.Instrs, trace.NewCompute(100, 2, 32))
				}
			}
			blk.Warps = append(blk.Warps, wt)
		}
		k.Blocks = append(k.Blocks, blk)
	}
	path := filepath.Join(t.TempDir(), "refills.dlpstrm")
	if err := trace.WriteFile(path, trace.NewKernelStream(k), 0); err != nil {
		t.Fatal(err)
	}
	fs, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	e, err := New(cfg, config.PolicyDLP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(cfg.NumSMs * warps * instrs)
	var ms runtime.MemStats
	var insns0, mallocs0, insns, mallocs uint64
	e.windowHook = func(_, _, _ uint64) {
		n := uint64(0)
		for _, s := range e.sms {
			n += s.Stats().WarpInsns
		}
		switch {
		case insns0 == 0 && n >= total/3:
			runtime.ReadMemStats(&ms)
			insns0, mallocs0 = n, ms.Mallocs
		case insns0 != 0 && insns == 0 && n >= 2*total/3:
			runtime.ReadMemStats(&ms)
			insns, mallocs = n-insns0, ms.Mallocs-mallocs0
		}
	}
	if _, err := e.RunStream(context.Background(), fs); err != nil {
		t.Fatal(err)
	}
	refills := insns / trace.DefaultChunkInstrs
	t.Logf("%d allocations over %d warp instructions (~%d refills)", mallocs, insns, refills)
	if refills < 2000 {
		t.Fatalf("measured only %d refills", refills)
	}
	if mallocs*100 > refills {
		t.Errorf("%d allocations over ~%d refills, want under one per hundred", mallocs, refills)
	}
}
