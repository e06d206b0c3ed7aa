package workloads

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/rdd"
	"repro/internal/trace"
)

func TestRegistryMatchesTable2(t *testing.T) {
	specs := All()
	if len(specs) != 18 {
		t.Fatalf("registry has %d applications, Table 2 lists 18", len(specs))
	}
	wantOrder := []string{"HG", "HS", "STEN", "SC", "BP", "SRAD", "NW", "GEMM", "BT",
		"CFD", "PVR", "SS", "BFS", "MM", "SRK", "SR2K", "KM", "STR"}
	for i, s := range specs {
		if s.Abbr != wantOrder[i] {
			t.Errorf("position %d: %s, want %s", i, s.Abbr, wantOrder[i])
		}
	}
	// Class split per Table 2: first 9 CS, last 9 CI.
	for i, s := range specs {
		want := CS
		if i >= 9 {
			want = CI
		}
		if s.Class != want {
			t.Errorf("%s classified %v, Table 2 says %v", s.Abbr, s.Class, want)
		}
	}
	// Suites per Table 2.
	suites := map[string]string{
		"HG": "CUDA Samples", "HS": "Rodinia", "STEN": "Parboil", "SC": "Rodinia",
		"BP": "Rodinia", "SRAD": "Rodinia", "NW": "Rodinia", "GEMM": "Polybench",
		"BT": "Rodinia", "CFD": "Rodinia", "PVR": "Mars", "SS": "Mars",
		"BFS": "Rodinia", "MM": "Mars", "SRK": "Polybench", "SR2K": "Polybench",
		"KM": "Rodinia", "STR": "Mars",
	}
	for _, s := range specs {
		if s.Suite != suites[s.Abbr] {
			t.Errorf("%s suite %q, want %q", s.Abbr, s.Suite, suites[s.Abbr])
		}
	}
}

func TestByAbbr(t *testing.T) {
	s, err := ByAbbr("BFS")
	if err != nil || s.Name != "Breadth-First Search" {
		t.Errorf("ByAbbr(BFS) = %+v, %v", s, err)
	}
	if _, err := ByAbbr("NOPE"); err == nil {
		t.Error("unknown abbreviation accepted")
	}
	if got := len(Abbrs()); got != 18 {
		t.Errorf("Abbrs() returned %d entries", got)
	}
}

func TestByClass(t *testing.T) {
	if got := len(ByClass(CS)); got != 9 {
		t.Errorf("ByClass(CS) = %d apps", got)
	}
	if got := len(ByClass(CI)); got != 9 {
		t.Errorf("ByClass(CI) = %d apps", got)
	}
	if CS.String() != "CS" || CI.String() != "CI" {
		t.Error("Class strings wrong")
	}
}

func TestAllKernelsValid(t *testing.T) {
	cfg := config.Baseline()
	for _, s := range All() {
		k := s.Generate()
		if err := k.Validate(cfg.WarpSize); err != nil {
			t.Errorf("%s: invalid kernel: %v", s.Abbr, err)
		}
		if k.Name != s.Abbr {
			t.Errorf("%s: kernel named %q", s.Abbr, k.Name)
		}
	}
}

func TestGenerationDeterministic(t *testing.T) {
	for _, s := range All() {
		a := s.Generate().Summarize(128)
		b := s.Generate().Summarize(128)
		if *a != *b {
			t.Errorf("%s: non-deterministic generation:\n%+v\nvs\n%+v", s.Abbr, a, b)
		}
	}
}

// TestClassificationThreshold checks the paper's §3.2 rule: CS below the
// 1% memory-access-ratio threshold, CI above it (Fig. 6).
func TestClassificationThreshold(t *testing.T) {
	for _, s := range All() {
		ratio := s.Generate().Summarize(128).MemoryAccessRatio()
		if s.Class == CS && ratio >= RatioThreshold {
			t.Errorf("%s is CS but ratio %.4f >= 1%%", s.Abbr, ratio)
		}
		if s.Class == CI && ratio < RatioThreshold {
			t.Errorf("%s is CI but ratio %.4f < 1%%", s.Abbr, ratio)
		}
	}
}

// TestRatioOrdering: Fig. 6 sorts applications by ratio; the registry
// order (Table 2 order) must already be ascending, HG lowest, STR highest.
func TestRatioOrdering(t *testing.T) {
	prev := -1.0
	for _, s := range All() {
		ratio := s.Generate().Summarize(128).MemoryAccessRatio()
		if ratio <= prev {
			t.Errorf("%s ratio %.4f not above predecessor's %.4f (Fig. 6 ordering)",
				s.Abbr, ratio, prev)
		}
		prev = ratio
	}
}

// TestDominantRDBuckets checks each application's RDD shape against the
// Fig. 3 expectation recorded in the registry.
func TestDominantRDBuckets(t *testing.T) {
	cfg := config.Baseline()
	for _, s := range All() {
		prof := rdd.ProfileKernel(s.Generate(), cfg.NumSMs, cfg.L1D)
		fr := prof.GlobalFractions()
		if s.DominantBucket < 0 {
			continue // mixed profile, no single dominant bucket
		}
		best, bestV := 0, fr[0]
		for i, v := range fr {
			if v > bestV {
				best, bestV = i, v
			}
		}
		if best != s.DominantBucket {
			t.Errorf("%s: dominant RD bucket %d (%.0f%%), registry expects %d (fractions %v)",
				s.Abbr, best, bestV*100, s.DominantBucket, fr)
		}
	}
}

// TestMMSpreadAcrossBuckets: the paper quotes MM's RDD explicitly
// (19.5/35.8/33.2/11.5); ours must at least populate every bucket with
// nontrivial mass (§3.1: "RDs may be distributed across all ranges").
func TestMMSpreadAcrossBuckets(t *testing.T) {
	cfg := config.Baseline()
	s, _ := ByAbbr("MM")
	fr := rdd.ProfileKernel(s.Generate(), cfg.NumSMs, cfg.L1D).GlobalFractions()
	for i, f := range fr {
		if f < 0.05 {
			t.Errorf("MM bucket %d holds only %.1f%% of reuses; paper reports a spread", i, f*100)
		}
	}
}

// TestBFSPerInstructionDiversity reproduces the Fig. 7 observation: BFS's
// memory instructions have very different RDDs — at least one dominated
// by short distances and at least one dominated by long ones.
func TestBFSPerInstructionDiversity(t *testing.T) {
	cfg := config.Baseline()
	s, _ := ByAbbr("BFS")
	prof := rdd.ProfileKernel(s.Generate(), cfg.NumSMs, cfg.L1D)
	pcs := prof.PCs()
	// Only instructions that re-reference data appear in the profile;
	// birth-only PCs do not. The static instruction count must still be
	// close to the paper's ten.
	if static := s.Generate().Summarize(128).DistinctPCs; static < 9 {
		t.Fatalf("BFS has %d static memory PCs, paper shows 10", static)
	}
	if len(pcs) < 5 {
		t.Fatalf("BFS has %d profiled memory PCs, want at least 5", len(pcs))
	}
	shortDominated, longDominated := false, false
	for _, pc := range pcs {
		fr := prof.PCFractions(pc)
		if fr[0] > 0.5 {
			shortDominated = true
		}
		if fr[2]+fr[3] > 0.5 {
			longDominated = true
		}
	}
	if !shortDominated {
		t.Error("no BFS instruction has a short-RD-dominated profile (paper: insn 2/3)")
	}
	if !longDominated {
		t.Error("no BFS instruction has a long-RD-dominated profile (paper: insn 4/9)")
	}
}

// TestReuseMissRateShrinksWithAssociativity reproduces Fig. 4's overall
// trend on the CI class: the reuse miss rate must not increase as the
// cache grows, and must drop substantially by 64KB for apps that are not
// >64-dominated.
func TestReuseMissRateShrinksWithAssociativity(t *testing.T) {
	g16 := config.Baseline().L1D
	g32 := config.L1D32KB().L1D
	g64 := config.L1D64KB().L1D
	n := config.Baseline().NumSMs
	for _, s := range ByClass(CI) {
		k := s.Generate()
		m16 := rdd.ReuseMissRate(k, n, g16)
		m32 := rdd.ReuseMissRate(k, n, g32)
		m64 := rdd.ReuseMissRate(k, n, g64)
		if m32 > m16+1e-9 || m64 > m32+1e-9 {
			t.Errorf("%s: reuse miss rate grew with cache size: %.3f/%.3f/%.3f", s.Abbr, m16, m32, m64)
		}
		if s.DominantBucket == 3 {
			continue // KM/STR: >64 distances defeat even 64KB (paper's exceptions)
		}
		if m64 > 0.75 {
			t.Errorf("%s: 64KB reuse miss rate still %.3f", s.Abbr, m64)
		}
	}
}

// TestCSFootprintsAreCacheable: CS apps other than the compulsory-miss
// dominated ones should show low reuse miss rates at the baseline size.
func TestCSFootprintsAreCacheable(t *testing.T) {
	g16 := config.Baseline().L1D
	n := config.Baseline().NumSMs
	for _, abbr := range []string{"SC", "BP", "SRAD", "GEMM"} {
		s, _ := ByAbbr(abbr)
		if m := rdd.ReuseMissRate(s.Generate(), n, g16); m > 0.15 {
			t.Errorf("%s: baseline reuse miss rate %.3f, want < 0.15 (cache-friendly CS app)", abbr, m)
		}
	}
}

func TestSummariesReasonable(t *testing.T) {
	for _, s := range All() {
		sum := s.Generate().Summarize(128)
		if sum.Blocks != 16 {
			t.Errorf("%s: %d blocks, want 16 (one per SM)", s.Abbr, sum.Blocks)
		}
		if sum.Warps < 16*16 {
			t.Errorf("%s: only %d warps", s.Abbr, sum.Warps)
		}
		if sum.LineAccesses == 0 || sum.DistinctPCs == 0 {
			t.Errorf("%s: empty memory behavior: %+v", s.Abbr, sum)
		}
		if sum.DistinctPCs > 128 {
			t.Errorf("%s: %d memory PCs exceeds the 128-entry PDPT (§4.1.3)", s.Abbr, sum.DistinctPCs)
		}
	}
}

func TestLoadSpanClamps(t *testing.T) {
	k := gridSpec{name: "x", blocks: 1, warps: 1, build: func(b *wb, _, _ int) {
		b.loadSpan(0, 0, 0)  // clamps to 1
		b.loadSpan(1, 0, 64) // clamps to 32
	}}.Kernel()
	if err := k.Validate(32); err != nil {
		t.Fatalf("clamped spans invalid: %v", err)
	}
	instrs := k.Blocks[0].Warps[0].Instrs
	if got := len(instrs[0].CoalescedLines(128)); got != 1 {
		t.Errorf("span 0 coalesced to %d lines", got)
	}
	if got := len(instrs[1].CoalescedLines(128)); got != 32 {
		t.Errorf("span 64 coalesced to %d lines, want 32", got)
	}
}

// maxAllocsPerWarp bounds eager generation's heap allocations per warp.
// A sized build costs two (the warp's instructions and its lane slab;
// TestEagerWarpCostsTwoAllocations pins that on one P); growing the
// instruction slice or allocating lanes per instruction costs hundreds.
const maxAllocsPerWarp = 8

// TestEagerWarpsBuiltAtFinalSize pins the sized eager build: every warp
// of every registry app and of a gather-heavy synth spec is allocated at
// its final length, every memory instruction's lanes are capped at
// their length (a capped sub-slice of the warp's slab: an append to one
// never writes over its neighbor), and generation allocates a small
// constant per warp, not per instruction.
func TestEagerWarpsBuiltAtFinalSize(t *testing.T) {
	gather := SynthSpec{
		Name: "gather", Seed: 3, Blocks: 4, WarpsPerBlock: 8, MemInsnsPerWarp: 256, ComputeRun: 1,
		FootprintLines: 4096, StorePct: 25, GatherPct: 80, StreamPct: 10, StridePct: 10,
	}
	kernels := map[string]func() *trace.Kernel{gather.Name: gather.Kernel}
	names := []string{gather.Name}
	for _, s := range All() {
		kernels[s.Abbr] = s.Generate
		names = append(names, s.Abbr)
	}
	for _, name := range names {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		k := kernels[name]()
		runtime.ReadMemStats(&m1)
		warps, instrs := 0, 0
		var slack error // the kernel's first oversized slice
		for _, blk := range k.Blocks {
			for _, w := range blk.Warps {
				if len(w.Instrs) != cap(w.Instrs) && slack == nil {
					slack = fmt.Errorf("warp %d: %d instructions in capacity %d", warps, len(w.Instrs), cap(w.Instrs))
				}
				for i := range w.Instrs {
					if a := w.Instrs[i].Addrs; cap(a) != len(a) && slack == nil {
						slack = fmt.Errorf("warp %d insn %d: %d lanes in capacity %d", warps, i, len(a), cap(a))
					}
				}
				warps++
				instrs += len(w.Instrs)
			}
		}
		if slack != nil {
			t.Errorf("%s: %v", name, slack)
		}
		if allocs := m1.Mallocs - m0.Mallocs; allocs > uint64(maxAllocsPerWarp*warps) {
			t.Errorf("%s: generating %d warps (%d instructions) made %d allocations, want at most %d per warp",
				name, warps, instrs, allocs, maxAllocsPerWarp)
		}
	}
}

func TestLayoutRegionsDisjoint(t *testing.T) {
	var mem layout
	a := mem.array(4)
	b := mem.array(4)
	if uint64(b) <= uint64(a)+4*128 {
		t.Errorf("regions overlap: a=%#x b=%#x", uint64(a), uint64(b))
	}
}

func TestRatioAgainstNamedTargets(t *testing.T) {
	// Spot checks anchoring the Fig. 6 endpoints.
	hg, _ := ByAbbr("HG")
	if r := hg.Generate().Summarize(128).MemoryAccessRatio(); r > 0.002 {
		t.Errorf("HG ratio %.4f, want < 0.2%% (lowest of the suite)", r)
	}
	str, _ := ByAbbr("STR")
	if r := str.Generate().Summarize(128).MemoryAccessRatio(); r < 0.10 {
		t.Errorf("STR ratio %.4f, want > 10%% (highest of the suite)", r)
	}
}

func TestPerBlockArrays(t *testing.T) {
	var mem layout
	arrs := perBlockArrays(&mem, 4, 8)
	if len(arrs) != 4 {
		t.Fatalf("got %d regions", len(arrs))
	}
	seen := map[uint64]bool{}
	for _, a := range arrs {
		if seen[uint64(a)] {
			t.Error("duplicate region base")
		}
		seen[uint64(a)] = true
	}
}

func TestSeedForDistinct(t *testing.T) {
	a := seedFor(1, 0, 0).Uint64()
	b := seedFor(1, 0, 1).Uint64()
	c := seedFor(1, 1, 0).Uint64()
	d := seedFor(2, 0, 0).Uint64()
	vals := map[uint64]bool{a: true, b: true, c: true, d: true}
	if len(vals) != 4 {
		t.Error("seedFor collides across (app, block, warp)")
	}
}

func TestFractionsHelperNaNFree(t *testing.T) {
	// Guard against NaNs leaking out of profile fractions for any app.
	cfg := config.Baseline()
	for _, s := range All() {
		fr := rdd.ProfileKernel(s.Generate(), cfg.NumSMs, cfg.L1D).GlobalFractions()
		for i, f := range fr {
			if math.IsNaN(f) {
				t.Errorf("%s: NaN fraction in bucket %d", s.Abbr, i)
			}
		}
	}
}

// TestEagerWarpCostsTwoAllocations pins what one warp of eager
// generation costs the heap: its instructions and its lane addresses.
// The blocks, the warp pointers and the warps are one slab each, and a
// worker's builder and chunk header serve every warp it builds, so
// what is left is a constant per kernel (the shape table, the grid's
// closures, the fan-out's workers).
func TestEagerWarpCostsTwoAllocations(t *testing.T) {
	const perKernel = 64
	s, _ := ByAbbr("HG")
	warps := 0
	for _, b := range s.Generate().Blocks {
		warps += len(b.Warps)
	}
	allocs := testing.AllocsPerRun(2, func() { s.Generate() })
	t.Logf("HG: %d warps, %.0f allocations", warps, allocs)
	if allocs > float64(2*warps+perKernel) {
		t.Errorf("HG: generating %d warps made %.0f allocations, want at most 2 per warp + %d", warps, allocs, perKernel)
	}
}
