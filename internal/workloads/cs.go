package workloads

import (
	"repro/internal/addr"
)

// This file holds the nine cache-sufficient (CS) applications of Table 2.
// Their memory-access ratios sit below the paper's 1% threshold, so the
// L1D barely influences their IPC; what matters is that their reuse
// patterns match Fig. 3 (e.g. HG/STEN long-RD and compulsory-dominated,
// SC/BP short-RD) so cache-management schemes leave them unharmed —
// and that SRAD/BT keep the high hit rates that Stall-Bypass damages.
//
// All kernels launch 16 blocks of 16 warps: one block per SM under the
// round-robin dispatcher, 16 resident warps per SM.
//
// Every generator takes a scale factor: scale 1 is the paper-suite
// shape (byte-identical to the original eager generators), larger
// scales multiply the block count and the shared-region footprints so
// grids of 10-100x stress sampling periods and lost-locality detection
// in regimes the paper never measured.

const (
	csBlocks = 16
	csWarps  = 16
)

// perBlockArrays pre-allocates one region per block so warps of a block
// share data (shared tiles, weight matrices, tree nodes).
func perBlockArrays(mem *layout, blocks, lines int) []addr.Addr {
	out := make([]addr.Addr, blocks)
	for i := range out {
		out[i] = mem.array(lines)
	}
	return out
}

// gridHG models CUDA Samples' Histogram: a streaming scan of the input
// (compulsory misses only) plus scattered bin updates over a shared bin
// region, giving the long reuse distances of Fig. 3 and the lowest
// memory-access ratio of the suite (Fig. 6).
func gridHG(scale int) gridSpec {
	mem := &layout{}
	binsLines := 512 * scale
	bins := mem.array(binsLines)
	return gridSpec{name: "HG", blocks: csBlocks * scale, warps: csWarps, mem: mem,
		build: func(b *wb, block, warp int) {
			rng := seedFor(1, block, warp)
			const inputPerWarp = 10
			input := mem.array(inputPerWarp)
			for i := 0; i < inputPerWarp && !b.full(); i++ {
				b.loadVec(0, lineAt(input, i)) // stream the input
				// Per-element binning: a few diverged bin touches.
				binLines := make([]addr.Addr, 8)
				for j := range binLines {
					binLines[j] = lineAt(bins, rng.Intn(binsLines))
				}
				b.loadGather(1, binLines)
				b.compute(100, 350) // hashing and local sub-histogram work
			}
		}}
}

// gridHS models Rodinia's Hotspot: a 2D thermal stencil where each row is
// reused by the three vertically adjacent outputs — short reuse
// distances, modest memory intensity.
func gridHS(scale int) gridSpec {
	mem := &layout{}
	const rows = 6
	return gridSpec{name: "HS", blocks: csBlocks * scale, warps: csWarps, mem: mem,
		build: func(b *wb, block, warp int) {
			temp := mem.array(rows + 2)
			power := mem.array(rows)
			out := mem.array(rows)
			for y := 0; y < rows && !b.full(); y++ {
				b.loadVec(0, lineAt(temp, y))   // north (reused: was center)
				b.loadVec(1, lineAt(temp, y+1)) // center (reused: was south)
				b.loadVec(2, lineAt(temp, y+2)) // south (first touch)
				b.loadVec(3, lineAt(power, y))  // power map, streamed
				b.compute(100, 99)              // flux arithmetic
				b.storeVec(4, lineAt(out, y))
			}
		}}
}

// gridSTEN models Parboil's 3-D stencil: each warp sweeps its own slab of
// the volume; a plane line is re-referenced one full y-sweep later, so
// almost every reuse distance exceeds 64 (Fig. 3) and larger caches
// barely help (Fig. 4).
func gridSTEN(scale int) gridSpec {
	mem := &layout{}
	const slabLines = 40 // y-lines of the plane owned by one warp
	const planes = 2
	return gridSpec{name: "STEN", blocks: csBlocks * scale, warps: csWarps, mem: mem,
		build: func(b *wb, block, warp int) {
			vol := mem.array(slabLines * (planes + 2))
			out := mem.array(slabLines * planes)
			at := func(z, y int) addr.Addr { return lineAt(vol, z*slabLines+y) }
			for z := 1; z <= planes && !b.full(); z++ {
				for y := 0; y < slabLines && !b.full(); y++ {
					b.loadVec(0, at(z-1, y))
					b.loadVec(1, at(z, y))
					b.loadVec(2, at(z+1, y))
					b.compute(100, 58)
					b.storeVec(3, lineAt(out, (z-1)*slabLines+y))
				}
			}
		}}
}

// gridSC models separable convolution: a sliding window over rows where
// each input line is re-read by the immediately following outputs —
// reuse distances of 1–4.
func gridSC(scale int) gridSpec {
	mem := &layout{}
	const rows = 16
	return gridSpec{name: "SC", blocks: csBlocks * scale, warps: csWarps, mem: mem,
		build: func(b *wb, block, warp int) {
			img := mem.array(rows + 2)
			out := mem.array(rows)
			for y := 0; y < rows && !b.full(); y++ {
				b.loadVec(0, lineAt(img, y))
				b.loadVec(1, lineAt(img, y+1))
				b.loadVec(2, lineAt(img, y+2))
				b.compute(100, 38) // 9-tap filter math
				b.storeVec(3, lineAt(out, y))
			}
		}}
}

// gridBP models Rodinia's Back Propagation forward pass: a per-block
// weight matrix shared by all warps and re-walked for every input
// element — short reuse distances.
func gridBP(scale int) gridSpec {
	mem := &layout{}
	const weightLines = 16
	blocks := csBlocks * scale
	weights := perBlockArrays(mem, blocks, weightLines)
	return gridSpec{name: "BP", blocks: blocks, warps: csWarps, mem: mem,
		build: func(b *wb, block, warp int) {
			const inputs = 12
			in := mem.array(inputs)
			for i := 0; i < inputs && !b.full(); i++ {
				b.loadVec(0, lineAt(in, i)) // stream inputs
				// Re-walk a slice of the shared weight matrix: tight reuse.
				for w := 0; w < 4; w++ {
					b.loadVec(1, lineAt(weights[block], (i+w)%weightLines))
				}
				b.compute(100, 40) // dot products and sigmoid
			}
		}}
}

// gridSRAD models Rodinia's SRAD diffusion: all warps of a block sweep a
// shared image whose footprint fits the L1D; vertical-neighbor sharing
// between adjacent warps gives a high hit rate that over-bypassing
// schemes destroy (§6.1.1).
func gridSRAD(scale int) gridSpec {
	mem := &layout{}
	const warps = 48 // full occupancy: bursts of loads expose stalls
	const rows = warps
	blocks := csBlocks * scale
	imgs := perBlockArrays(mem, blocks, rows+2)
	coeffs := perBlockArrays(mem, blocks, rows+2)
	return gridSpec{name: "SRAD", blocks: blocks, warps: warps, mem: mem,
		build: func(b *wb, block, warp int) {
			img, coeff := imgs[block], coeffs[block]
			const passes = 8
			for pass := 0; pass < passes && !b.full(); pass++ {
				y := warp
				b.loadVec(0, lineAt(img, y))
				b.loadVec(1, lineAt(img, y+1))
				b.loadVec(2, lineAt(img, y+2))
				b.loadVec(3, lineAt(coeff, y+1))
				b.compute(100, 26)
				b.storeVec(4, lineAt(coeff, y+1))
			}
		}}
}

// gridNW models Needleman-Wunsch: the anti-diagonal wavefront re-reads
// the previous two diagonals quickly but the reference matrix at long
// distances — a mixed RDD.
func gridNW(scale int) gridSpec {
	mem := &layout{}
	const diag = 6
	refLines := 512 * scale
	ref := mem.array(refLines)
	return gridSpec{name: "NW", blocks: csBlocks * scale, warps: csWarps, mem: mem,
		build: func(b *wb, block, warp int) {
			rng := seedFor(7, block, warp)
			score := mem.array(3 * diag)
			for step := 0; step < 40 && !b.full(); step++ {
				cur := step % 3
				prev := (step + 2) % 3
				prev2 := (step + 1) % 3
				b.loadVec(0, lineAt(score, prev*diag+step%diag))  // short RD
				b.loadVec(1, lineAt(score, prev2*diag+step%diag)) // short RD
				b.loadVec(2, lineAt(ref, rng.Intn(refLines)))
				b.compute(100, 17)
				b.storeVec(3, lineAt(score, cur*diag+step%diag))
			}
		}}
}

// gridGEMM models Polybench's GEMM with shared-memory tiling: global
// accesses stream the A/B tiles once per block while warps of the same
// block touch the same tile lines within a few cycles of each other —
// short reuse distances.
func gridGEMM(scale int) gridSpec {
	mem := &layout{}
	const tiles = 24
	const tileLines = 8
	blocks := csBlocks * scale
	a := perBlockArrays(mem, blocks, tiles*tileLines)
	bm := perBlockArrays(mem, blocks, tiles*tileLines)
	return gridSpec{name: "GEMM", blocks: blocks, warps: csWarps, mem: mem,
		build: func(b *wb, block, warp int) {
			c := mem.array(tileLines)
			for t := 0; t < tiles && !b.full(); t++ {
				for l := 0; l < tileLines && !b.full(); l++ {
					// All warps of the block load the same tile lines: the
					// interleaved issue makes the RD 1-4.
					b.loadVec(0, lineAt(a[block], t*tileLines+l))
					b.loadVec(1, lineAt(bm[block], t*tileLines+l))
					b.compute(100, 7) // the k-loop multiply-accumulate
				}
			}
			for l := 0; l < tileLines && !b.full(); l++ {
				b.loadVec(2, lineAt(c, l))
				b.storeVec(3, lineAt(c, l))
			}
		}}
}

// gridBT models Rodinia's B+tree lookups: root and inner nodes are hit by
// every query (very short RD, high hit rate) while leaves scatter —
// exactly the profile that Stall-Bypass damages by over-bypassing.
func gridBT(scale int) gridSpec {
	mem := &layout{}
	const innerLines = 6
	leafLines := 2048 * scale
	blocks := csBlocks * scale
	inner := perBlockArrays(mem, blocks, innerLines)
	leaves := mem.array(leafLines)
	return gridSpec{name: "BT", blocks: blocks, warps: 48, mem: mem,
		build: func(b *wb, block, warp int) {
			rng := seedFor(9, block, warp)
			const queries = 10
			for q := 0; q < queries && !b.full(); q++ {
				b.loadVec(0, lineAt(inner[block], 0)) // root: RD ~1
				b.loadVec(1, lineAt(inner[block], 1+rng.Intn(innerLines-1)))
				b.loadGather(2, []addr.Addr{
					lineAt(leaves, rng.Intn(leafLines)),
					lineAt(leaves, rng.Intn(leafLines)),
				})
				b.compute(100, 11) // key comparisons
			}
		}}
}
