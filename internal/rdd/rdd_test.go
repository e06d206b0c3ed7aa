package rdd

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

// kernelFromLines builds a single-warp kernel that loads the given line
// numbers in order, each with the given PCs (parallel slice, or all 0).
func kernelFromLines(lines []int, pcs []uint32) *trace.Kernel {
	w := &trace.WarpTrace{}
	for i, l := range lines {
		pc := uint32(0)
		if pcs != nil {
			pc = pcs[i]
		}
		w.Instrs = append(w.Instrs, trace.NewLoad(pc, []addr.Addr{addr.Addr(l * 128)}))
	}
	return &trace.Kernel{Name: "t", Blocks: []*trace.Block{{Warps: []*trace.WarpTrace{w}}}}
}

// geom2way is the Figure 2 example cache: 2-way, small.
var geom2way = config.CacheGeom{Sets: 2, Ways: 2, LineSize: 128, Hashed: false}

// TestFig2Example reproduces the paper's Figure 2: sequence
// Addr0, Addr1, Addr2, Addr0 (all in one set) gives Addr0 a RD of 3.
func TestFig2Example(t *testing.T) {
	// Lines 0, 2, 4 all map to set 0 of a 2-set linear cache.
	k := kernelFromLines([]int{0, 2, 4, 0}, nil)
	p := ProfileKernel(k, 1, geom2way)
	if p.Accesses != 4 {
		t.Fatalf("accesses = %d", p.Accesses)
	}
	if p.Reuses != 1 {
		t.Fatalf("reuses = %d, want 1", p.Reuses)
	}
	if got := p.Global.Count(3); got != 1 {
		t.Errorf("RD=3 count = %d, want 1 (Figure 2)", got)
	}
}

func TestRDIsPerSet(t *testing.T) {
	// Lines 0 and 4 are in set 0; lines 1 and 3 in set 1 (2-set cache).
	// Set-1 accesses must not inflate set-0 distances.
	k := kernelFromLines([]int{0, 1, 3, 1, 0}, nil)
	p := ProfileKernel(k, 1, geom2way)
	// Set 1 sees 1,3,1: the re-reference of line 1 has RD 2. Set 0 sees
	// 0,0 — back to back within its set despite the set-1 accesses in
	// between, so RD 1.
	if got := p.Global.Count(2); got != 1 {
		t.Errorf("RD=2 count = %d, want 1", got)
	}
	if got := p.Global.Count(1); got != 1 {
		t.Errorf("RD=1 count = %d, want 1", got)
	}
}

func TestBackToBackRDIsOne(t *testing.T) {
	k := kernelFromLines([]int{5, 5, 5}, nil)
	p := ProfileKernel(k, 1, geom2way)
	if got := p.Global.Count(1); got != 2 {
		t.Errorf("RD=1 count = %d, want 2", got)
	}
}

func TestPerPCAttribution(t *testing.T) {
	// Line 0 brought in by PC 1, re-referenced by PC 2: the RD belongs to
	// the re-referencing instruction.
	k := kernelFromLines([]int{0, 2, 0}, []uint32{1, 1, 2})
	p := ProfileKernel(k, 1, geom2way)
	if got := p.PCFractions(2); got[0] != 1 {
		t.Errorf("PC 2 fractions = %v, want all mass in bucket 0", got)
	}
	if h, ok := p.PerPC[1]; ok && h.Total() > 0 {
		t.Error("PC 1 (first toucher) was credited a reuse")
	}
	pcs := p.PCs()
	if len(pcs) != 1 || pcs[0] != 2 {
		t.Errorf("PCs() = %v", pcs)
	}
}

func TestPCFractionsUnknownPC(t *testing.T) {
	k := kernelFromLines([]int{0}, nil)
	p := ProfileKernel(k, 1, geom2way)
	fr := p.PCFractions(99)
	if len(fr) != len(Buckets) {
		t.Fatalf("fractions len = %d", len(fr))
	}
	for _, f := range fr {
		if f != 0 {
			t.Errorf("unknown PC has nonzero fraction: %v", fr)
		}
	}
}

func TestGlobalFractionsSumToOne(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		lines := make([]int, len(raw))
		for i, r := range raw {
			lines[i] = int(r % 16)
		}
		k := kernelFromLines(lines, nil)
		p := ProfileKernel(k, 1, geom2way)
		if p.Reuses == 0 {
			return true
		}
		sum := 0.0
		for _, fr := range p.GlobalFractions() {
			sum += fr
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRDLowerBoundsLRUHit: under LRU, an access with RD <= ways always
// hits; the profiler and the LRU replay must agree on that bound.
func TestRDLowerBoundsLRUHit(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		lines := make([]int, len(raw))
		for i, r := range raw {
			lines[i] = int(r % 8)
		}
		k := kernelFromLines(lines, nil)
		p := ProfileKernel(k, 1, geom2way)
		// If every observed RD <= 2 (the associativity), the reuse miss
		// rate must be zero.
		maxRD := 0
		for _, v := range p.Global.Keys() {
			if v > maxRD {
				maxRD = v
			}
		}
		if maxRD <= 2 {
			return ReuseMissRate(k, 1, geom2way) == 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReuseMissRateThrashingIsOne(t *testing.T) {
	// Cycle over 3 lines in a 2-way set: every reuse misses.
	lines := []int{0, 2, 4, 0, 2, 4, 0, 2, 4}
	k := kernelFromLines(lines, nil)
	if got := ReuseMissRate(k, 1, geom2way); got != 1 {
		t.Errorf("thrashing reuse miss rate = %v, want 1", got)
	}
	// Doubling associativity fixes it.
	geom4 := config.CacheGeom{Sets: 2, Ways: 4, LineSize: 128, Hashed: false}
	if got := ReuseMissRate(k, 1, geom4); got != 0 {
		t.Errorf("4-way reuse miss rate = %v, want 0", got)
	}
}

func TestReuseMissRateNoReuse(t *testing.T) {
	k := kernelFromLines([]int{0, 1, 2, 3, 4, 5}, nil)
	if got := ReuseMissRate(k, 1, geom2way); got != 0 {
		t.Errorf("pure-streaming miss rate = %v, want 0 (compulsory excluded)", got)
	}
}

func TestReplayDistributesBlocksAcrossSMs(t *testing.T) {
	// Two identical blocks on two SMs: each SM sees its own cache, so the
	// two streams never interleave and RDs stay small.
	w1 := &trace.WarpTrace{Instrs: []trace.Instr{
		trace.NewLoad(0, []addr.Addr{0}), trace.NewLoad(0, []addr.Addr{0}),
	}}
	w2 := &trace.WarpTrace{Instrs: []trace.Instr{
		trace.NewLoad(0, []addr.Addr{0}), trace.NewLoad(0, []addr.Addr{0}),
	}}
	k := &trace.Kernel{Name: "two", Blocks: []*trace.Block{
		{Warps: []*trace.WarpTrace{w1}}, {Warps: []*trace.WarpTrace{w2}},
	}}
	p := ProfileKernel(k, 2, geom2way)
	if p.Reuses != 2 || p.Global.Count(1) != 2 {
		t.Errorf("reuses = %d, RD=1 count = %d; SM separation broken",
			p.Reuses, p.Global.Count(1))
	}
}

func TestReplayInterleavesWarpsWithinBlock(t *testing.T) {
	// Two warps in one block, each loading its own line then reloading
	// it. Round-robin interleave means each warp's reuse sees the other
	// warp's access in between: RD = 2 (same set).
	w1 := &trace.WarpTrace{Instrs: []trace.Instr{
		trace.NewLoad(0, []addr.Addr{0}), trace.NewLoad(0, []addr.Addr{0}),
	}}
	w2 := &trace.WarpTrace{Instrs: []trace.Instr{
		trace.NewLoad(1, []addr.Addr{2 * 128}), trace.NewLoad(1, []addr.Addr{2 * 128}),
	}}
	k := &trace.Kernel{Name: "il", Blocks: []*trace.Block{{Warps: []*trace.WarpTrace{w1, w2}}}}
	p := ProfileKernel(k, 1, geom2way)
	if got := p.Global.Count(2); got != 2 {
		t.Errorf("RD=2 count = %d, want 2 (warps interleaved)", got)
	}
}

func TestComputeInstructionsSkipped(t *testing.T) {
	w := &trace.WarpTrace{Instrs: []trace.Instr{
		trace.NewLoad(0, []addr.Addr{0}),
		trace.NewCompute(9, 4, 32),
		trace.NewLoad(0, []addr.Addr{0}),
	}}
	k := &trace.Kernel{Name: "c", Blocks: []*trace.Block{{Warps: []*trace.WarpTrace{w}}}}
	p := ProfileKernel(k, 1, geom2way)
	if p.Accesses != 2 || p.Global.Count(1) != 1 {
		t.Errorf("accesses = %d, RD=1 = %d; computes altered the stream",
			p.Accesses, p.Global.Count(1))
	}
}

// TestReplaySMStopsWhenAccessDeclines: ReplaySM hands visit the
// instruction behind each line (so a store reaches the callback as a
// store) and stops at the first false, mid-instruction included.
func TestReplaySMStopsWhenAccessDeclines(t *testing.T) {
	w := &trace.WarpTrace{Instrs: []trace.Instr{
		trace.NewStore(7, []addr.Addr{0, 128, 256}),
		trace.NewLoad(8, []addr.Addr{0}),
	}}
	var seen []trace.Kind
	ReplaySM([]*trace.Block{{Warps: []*trace.WarpTrace{w}}}, 128, func(in *trace.Instr, lines []addr.Addr) bool {
		for range lines {
			seen = append(seen, in.Kind)
			if len(seen) == 2 {
				return false
			}
		}
		return true
	})
	if len(seen) != 2 || seen[0] != trace.Store || seen[1] != trace.Store {
		t.Errorf("walk saw %v, want two store lines and then a stop", seen)
	}
}

// TestReplaySMVisitsEveryInstructionOnce walks a mixed kernel — compute
// before, between and after memory instructions, a compute-only warp,
// stores and multi-line loads, over two blocks — and checks the walk's
// contract: every instruction of every warp is visited exactly once,
// each warp's in program order, a turn runs through the warp's next
// memory instruction (through its end after the last one), and the
// memory lines come in the order of the memory-only walk this one
// replaced, which gave each warp one memory instruction per turn.
func TestReplaySMVisitsEveryInstructionOnce(t *testing.T) {
	c := func() trace.Instr { return trace.NewCompute(1, 4, 32) }
	ld := func(lines ...int) trace.Instr {
		a := make([]addr.Addr, 0, 2*len(lines))
		for _, l := range lines {
			a = append(a, addr.Addr(l*128), addr.Addr(l*128+4))
		}
		return trace.NewLoad(2, a)
	}
	st := func(line int) trace.Instr { return trace.NewStore(3, []addr.Addr{addr.Addr(line * 128)}) }
	warp := func(in ...trace.Instr) *trace.WarpTrace { return &trace.WarpTrace{Instrs: in} }
	blocks := []*trace.Block{
		{Warps: []*trace.WarpTrace{
			warp(c(), c(), ld(1, 2), c(), st(3), c(), c()),
			warp(ld(4), ld(5, 6, 7), c()),
			warp(c(), c()),
			warp(st(8), c(), ld(9)),
		}},
		{Warps: []*trace.WarpTrace{warp(c(), ld(10), c()), warp(ld(11))}},
	}
	pos := map[*trace.Instr]string{}
	for bi, b := range blocks {
		for wi, w := range b.Warps {
			for i := range w.Instrs {
				pos[&w.Instrs[i]] = fmt.Sprintf("b%dw%d.%d", bi, wi, i)
			}
		}
	}
	var order []string
	var lines []int
	ReplaySM(blocks, 128, func(in *trace.Instr, ls []addr.Addr) bool {
		order = append(order, pos[in])
		if (in.Kind == trace.Compute) != (len(ls) == 0) {
			t.Errorf("%s (kind %v) came with %d lines", pos[in], in.Kind, len(ls))
		}
		for _, l := range ls {
			lines = append(lines, int(l/128))
		}
		return true
	})
	want := []string{
		// Block 0, first round: each warp through its first memory
		// instruction; warp 2 has none and finishes.
		"b0w0.0", "b0w0.1", "b0w0.2", "b0w1.0", "b0w2.0", "b0w2.1", "b0w3.0",
		// Second round: every warp is on its last memory instruction and
		// also takes the compute instructions after it.
		"b0w0.3", "b0w0.4", "b0w0.5", "b0w0.6", "b0w1.1", "b0w1.2", "b0w3.1", "b0w3.2",
		"b1w0.0", "b1w0.1", "b1w0.2", "b1w1.0",
	}
	if !slices.Equal(order, want) {
		t.Errorf("visit order\n got %v\nwant %v", order, want)
	}
	if len(order) != len(pos) {
		t.Errorf("%d visits of %d instructions", len(order), len(pos))
	}
	if wantLines := []int{1, 2, 4, 8, 3, 5, 6, 7, 9, 10, 11}; !slices.Equal(lines, wantLines) {
		t.Errorf("memory lines %v, want %v", lines, wantLines)
	}
}

// TestReplayCoalescesAtTheGeometryLineSize: a 32-lane load of
// consecutive 4-byte words spans 128 bytes — one line of a 128-byte
// cache, two of a 64-byte one.
func TestReplayCoalescesAtTheGeometryLineSize(t *testing.T) {
	lanes := make([]addr.Addr, 32)
	for i := range lanes {
		lanes[i] = addr.Addr(4 * i)
	}
	w := &trace.WarpTrace{Instrs: []trace.Instr{trace.NewLoad(0, lanes)}}
	k := &trace.Kernel{Name: "wide", Blocks: []*trace.Block{{Warps: []*trace.WarpTrace{w}}}}
	for _, c := range []struct{ lineSize, want int }{{128, 1}, {64, 2}} {
		geom := config.CacheGeom{Sets: 2, Ways: 2, LineSize: c.lineSize}
		if got := ProfileKernel(k, 1, geom).Accesses; got != uint64(c.want) {
			t.Errorf("%d-byte lines: %d accesses, want %d", c.lineSize, got, c.want)
		}
	}
}

func TestBucketsMatchPaperRanges(t *testing.T) {
	h := stats.NewHistogram()
	for _, v := range []int{4, 5, 8, 9, 64, 65} {
		h.Observe(v)
	}
	fr := h.Fractions(Buckets)
	want := []float64{1.0 / 6, 2.0 / 6, 2.0 / 6, 1.0 / 6}
	for i := range want {
		if math.Abs(fr[i]-want[i]) > 1e-9 {
			t.Errorf("bucket %d = %v, want %v", i, fr[i], want[i])
		}
	}
	if len(BucketLabels) != len(Buckets) {
		t.Error("label/bucket length mismatch")
	}
}

// TestReplayAllocsStreamIndependent pins the replay's allocations to
// the cache state it builds (SMs × sets, distinct lines), not to the
// length of the memory stream. Replaying the same working set with 8×
// the accesses must not allocate more — without the scratch-buffer
// reuse, every instruction allocates its coalesced-line slice and every
// block its warp cursors.
func TestReplayAllocsStreamIndependent(t *testing.T) {
	build := func(touches int) *trace.Kernel {
		k := &trace.Kernel{Name: "alloc"}
		for b := 0; b < 16; b++ {
			blk := &trace.Block{}
			wt := &trace.WarpTrace{}
			for tch := 0; tch < touches; tch++ {
				for line := 0; line < 8; line++ {
					wt.Instrs = append(wt.Instrs,
						trace.NewLoad(uint32(line), []addr.Addr{addr.Addr((b*8 + line) * 128)}))
				}
			}
			blk.Warps = append(blk.Warps, wt)
			k.Blocks = append(k.Blocks, blk)
		}
		return k
	}
	short, long := build(2), build(16)
	geom := config.Baseline().L1D
	measure := func(k *trace.Kernel) float64 {
		return testing.AllocsPerRun(10, func() {
			ProfileKernel(k, 16, geom)
			ReuseMissRate(k, 16, geom)
		})
	}
	a, b := measure(short), measure(long)
	// Identical working sets, so only map-internals jitter is tolerated.
	if b > a*1.1 {
		t.Errorf("8x the accesses allocates %.0f vs %.0f: replay allocations scale with stream length", b, a)
	}
}
