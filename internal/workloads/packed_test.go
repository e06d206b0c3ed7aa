package workloads

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/prng"
	"repro/internal/trace"
)

var (
	packedLineSizes  = []int{32, 64, 128}
	packedChunkSizes = []int{1, 7, 64}
)

// walkPacked drives cur to exhaustion, checking every packed op against
// the instruction it was packed from and that instruction against
// ref[i], the eager kernel's. Refills happen inside Advance, so a walk
// over a streaming cursor crosses every window boundary of the warp.
func walkPacked(cur *trace.Cursor, ref []trace.Instr, lineSize int) error {
	i := 0
	for ; !cur.Exhausted(); i++ {
		if cur.Index() != i || i >= len(ref) {
			return fmt.Errorf("cursor at index %d after %d steps of a %d-instruction warp", cur.Index(), i, len(ref))
		}
		if err := cur.CheckOp(lineSize); err != nil {
			return err
		}
		in, want := cur.Cur(), &ref[i]
		if in.Kind != want.Kind || in.PC != want.PC || in.Latency != want.Latency ||
			in.ActiveLanes != want.ActiveLanes || len(in.Addrs) != len(want.Addrs) {
			return fmt.Errorf("insn %d: streamed %+v, eager %+v", i, *in, *want)
		}
		for l := range in.Addrs {
			if in.Addrs[l] != want.Addrs[l] {
				return fmt.Errorf("insn %d lane %d: streamed %#x, eager %#x", i, l, uint64(in.Addrs[l]), uint64(want.Addrs[l]))
			}
		}
		cur.Advance()
	}
	if err := cur.Err(); err != nil {
		return err
	}
	if i != len(ref) {
		return fmt.Errorf("walked %d of %d instructions", i, len(ref))
	}
	return nil
}

// checkPacked verifies the packed issue program of k on the eager path
// at every line size, and of src — the same trace behind a Stream — on
// the streamed path at every line size x window size. The streamed
// walks, and under -short the eager ones too, cover only the warps
// sample picks (nil: all of them).
func checkPacked(t *testing.T, k *trace.Kernel, src trace.Stream, sample func(block, warp int) bool) {
	t.Helper()
	for _, lineSize := range packedLineSizes {
		// -short leaves unsampled warps unpacked: InitPacked packs the
		// sampled ones on demand, through the same WarpTrace.packed.
		if !testing.Short() {
			if err := k.Pack(lineSize, 32); err != nil {
				t.Fatalf("%s lineSize=%d: %v", k.Name, lineSize, err)
			}
		}
		for bi, b := range k.Blocks {
			for wi, w := range b.Warps {
				if testing.Short() && sample != nil && !sample(bi, wi) {
					continue
				}
				var cur trace.Cursor
				cur.InitPacked(w, lineSize)
				if err := walkPacked(&cur, w.Instrs, lineSize); err != nil {
					t.Fatalf("%s eager lineSize=%d block %d warp %d: %v", k.Name, lineSize, bi, wi, err)
				}
			}
		}
		for _, chunk := range packedChunkSizes {
			pool := trace.NewChunkPool(chunk)
			for bi, b := range k.Blocks {
				for wi, w := range b.Warps {
					if sample != nil && !sample(bi, wi) {
						continue
					}
					var cur trace.Cursor
					cur.InitStream(src, pool, lineSize, bi, wi)
					err := walkPacked(&cur, w.Instrs, lineSize)
					cur.Release()
					if err != nil {
						t.Fatalf("%s streamed lineSize=%d chunk=%d block %d warp %d: %v",
							k.Name, lineSize, chunk, bi, wi, err)
					}
				}
			}
		}
	}
}

// randomSynthSpec draws a small spec covering the mixer's whole pattern
// space: any class may be absent, footprints run from one line to
// thousands, and stride widths reach a full warp.
func randomSynthSpec(seed uint64) SynthSpec {
	r := prng.New(seed)
	return SynthSpec{
		Name: fmt.Sprintf("packed-%d", seed), Seed: r.Uint64(),
		Blocks: 1 + r.Intn(3), WarpsPerBlock: 1 + r.Intn(4),
		MemInsnsPerWarp: 1 + r.Intn(150), ComputeRun: r.Intn(4),
		FootprintLines: 1 + r.Intn(4096), HotLines: r.Intn(9), StorePct: r.Intn(60),
		StreamPct: r.Intn(4), StridePct: r.Intn(4), GatherPct: r.Intn(4), HotPct: r.Intn(4), ConflictPct: r.Intn(4),
		StrideLines: r.Intn(33), ConflictStrideLines: r.Intn(65),
		PhaseLen: r.Intn(3) * 16, PhaseRotate: r.Intn(3),
	}
}

// TestPackedMatchesInstr is the equivalence fence of the hot/cold split:
// whoever builds the ops — Kernel.Pack over whole warps, a cursor refill
// over one window of a generator, a replayed trace file — every op says
// what its Instr says (kind, lanes, PC, latency) and its lines are a
// fresh coalescing of the Instr's addresses, at line sizes 32/64/128
// and window sizes 1/7/64, across every refill boundary.
func TestPackedMatchesInstr(t *testing.T) {
	t.Run("table2", func(t *testing.T) {
		for _, spec := range All() {
			k := spec.Generate()
			// A generator-backed refill replays the warp's build closure,
			// so window size 1 costs O(n^2) per warp: sample the grid's
			// corners and centre (under -short, its first warp).
			nb, nw := len(k.Blocks), len(k.Blocks[0].Warps)
			sample := func(b, w int) bool {
				if testing.Short() {
					return b == 0 && w == 0
				}
				return (b == 0 && w == 0) || (b == nb/2 && w == nw/2) || (b == nb-1 && w == nw-1)
			}
			checkPacked(t, k, spec.Stream(1), sample)
		}
	})
	t.Run("synth", func(t *testing.T) {
		seeds := uint64(50)
		if testing.Short() {
			seeds = 12
		}
		for seed := uint64(1); seed <= seeds; seed++ {
			spec := randomSynthSpec(seed)
			checkPacked(t, spec.Kernel(), spec.Stream(), nil)
		}
	})
	t.Run("replay", func(t *testing.T) {
		// A recorded file's windows are the chunks it was written with,
		// whatever the pool asks for: record once per window size.
		spec := mixedSpec(7)
		k := spec.Kernel()
		for _, chunk := range packedChunkSizes {
			path := filepath.Join(t.TempDir(), fmt.Sprintf("mix-%d.dlpstrm", chunk))
			if err := trace.WriteFile(path, spec.Stream(), chunk); err != nil {
				t.Fatal(err)
			}
			fs, err := trace.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			checkPacked(t, k, fs, nil)
			fs.Close()
		}
	})
}
