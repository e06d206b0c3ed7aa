package workloads

import "testing"

// mixedSpec exercises every pattern class and both memory kinds.
func mixedSpec(seed uint64) SynthSpec {
	return SynthSpec{
		Name: "mix", Seed: seed,
		Blocks: 2, WarpsPerBlock: 3, MemInsnsPerWarp: 64, ComputeRun: 2,
		FootprintLines: 128, HotLines: 4, StorePct: 20,
		StreamPct: 30, StridePct: 20, GatherPct: 20, HotPct: 20, ConflictPct: 10,
		StrideLines: 4, ConflictStrideLines: 32,
	}
}

func TestSynthKernelValidAndDeterministic(t *testing.T) {
	spec := mixedSpec(42)
	k1 := spec.Kernel()
	if err := k1.Validate(32); err != nil {
		t.Fatalf("generated kernel invalid: %v", err)
	}
	d1, ok1 := k1.Digest()
	d2, ok2 := mixedSpec(42).Kernel().Digest()
	if !ok1 || !ok2 {
		t.Fatal("generated kernel has no digest")
	}
	if d1 != d2 {
		t.Error("same spec generated different traces")
	}
	if d3, _ := mixedSpec(43).Kernel().Digest(); d3 == d1 {
		t.Error("different seeds generated identical traces")
	}
}

func TestSynthKernelShape(t *testing.T) {
	spec := mixedSpec(7)
	k := spec.Kernel()
	sum := k.Summarize(lineBytes)
	if sum.Blocks != spec.Blocks {
		t.Errorf("blocks = %d, want %d", sum.Blocks, spec.Blocks)
	}
	if sum.Warps != spec.Blocks*spec.WarpsPerBlock {
		t.Errorf("warps = %d, want %d", sum.Warps, spec.Blocks*spec.WarpsPerBlock)
	}
	wantMem := uint64(spec.Blocks * spec.WarpsPerBlock * spec.MemInsnsPerWarp)
	if sum.MemInsns != wantMem {
		t.Errorf("mem insns = %d, want %d", sum.MemInsns, wantMem)
	}
	if sum.StoreInsns == 0 {
		t.Error("StorePct=20 generated no stores")
	}
	if sum.DistinctLines > uint64(spec.FootprintLines) {
		t.Errorf("footprint %d lines exceeds spec's %d", sum.DistinctLines, spec.FootprintLines)
	}
	// The footprint region must be respected even by the diverged
	// patterns: every line is inside [base, base+footprint).
	if sum.DistinctPCs < 5 {
		t.Errorf("only %d distinct memory PCs; mixer should attribute per pattern", sum.DistinctPCs)
	}
}

// TestSynthDegenerateSpecsClamp proves the generator never emits an
// invalid kernel, whatever the field values: the fuzzer's shrinker
// drives fields to their floors and beyond.
func TestSynthDegenerateSpecsClamp(t *testing.T) {
	specs := []SynthSpec{
		{}, // all zero
		{Seed: 1, Blocks: -5, WarpsPerBlock: -1, MemInsnsPerWarp: -1},
		{Seed: 2, Blocks: 1, WarpsPerBlock: 1, MemInsnsPerWarp: 1, FootprintLines: 1,
			HotPct: 1, HotLines: 99},
		{Seed: 3, Blocks: 1, WarpsPerBlock: 1, MemInsnsPerWarp: 8, FootprintLines: 2,
			ConflictPct: 1, ConflictStrideLines: 1000},
		{Seed: 4, Blocks: 1, WarpsPerBlock: 1, MemInsnsPerWarp: 8, FootprintLines: 3,
			StridePct: 1, StrideLines: 64, StorePct: 200},
		{Seed: 5, Blocks: 1, WarpsPerBlock: 1, MemInsnsPerWarp: 4, FootprintLines: 4,
			StreamPct: -1},
	}
	for i, s := range specs {
		k := s.Kernel()
		if err := k.Validate(32); err != nil {
			t.Errorf("spec %d: invalid kernel: %v", i, err)
		}
	}
}

func TestSynthSpecValidate(t *testing.T) {
	good := mixedSpec(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []SynthSpec{
		{Seed: 1, WarpsPerBlock: 1, MemInsnsPerWarp: 1, FootprintLines: 1},                              // Blocks 0
		{Seed: 1, Blocks: 1, MemInsnsPerWarp: 1, FootprintLines: 1},                                     // warps 0
		{Seed: 1, Blocks: 1, WarpsPerBlock: 1, FootprintLines: 1},                                       // insns 0
		{Seed: 1, Blocks: 1, WarpsPerBlock: 1, MemInsnsPerWarp: 1},                                      // footprint 0
		{Seed: 1, Blocks: 1 << 13, WarpsPerBlock: 1 << 13, MemInsnsPerWarp: 1 << 13, FootprintLines: 1}, // too big
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d passed Validate", i)
		}
	}
}
