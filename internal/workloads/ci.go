package workloads

import (
	"repro/internal/addr"
)

// This file holds the nine cache-insufficient (CI) applications of
// Table 2. Their memory-access ratios exceed 1% and each mixes, from
// distinct memory instructions, (a) a small per-warp reuse window whose
// lines are re-touched every few of the warp's own instructions and
// (b) dead-on-arrival streaming data. With 48 resident warps the window
// re-touches return after more interleaved set accesses than the 4-way
// baseline L1D can hold — the paper's thrashing pathology — while
// instruction-aware protection keeps window lines resident and lets the
// stream cycle through the unprotected ways.
//
// All CI kernels launch 16 blocks of 48 warps — one full-occupancy block
// per SM (Table 1: max 48 warps per core) — so concurrent misses exceed
// the 16 MSHRs and the baseline exhibits memory-pipeline stalls (§2).
// Scale factors multiply the block count (and shared footprints such as
// BFS's edge region); scale 1 is byte-identical to the original
// generators.
//
// Reuse-distance arithmetic: with L line accesses per warp iteration and
// 48 warps interleaving, a window line re-touched after p of its warp's
// iterations has a per-set reuse distance of roughly p*L*48/32 = 1.5*p*L
// under the hashed 32-set index. Windows are sized so that RD lands at
// 6–9 for ordinary CI apps (recoverable by protection or by doubling
// associativity), 12–15 for CFD/SR2K (beyond the 32KB cache's 8-way
// reach but within the 4-bit protection window — the paper's §6.1.2
// observation), and far beyond 64 for KM/STR.

const (
	ciBlocks = 16
	ciWarps  = 48
)

// slidingStream is the common CI skeleton: each warp advances through a
// private data region touching every line exactly `touches` times — at
// birth (PC 0) and again every gap iterations (PCs 1..touches-1) — while
// streaming dead lines from PC 9. Each line's useful life is short, so a
// scheme that bypasses or evicts the wrong lines loses hits it can never
// recover, while per-instruction protection learns that early-touch
// lines have upcoming reuse and last-touch/stream lines are dead (a
// line's protected life comes from the PD of its *last* toucher).
func slidingStream(name string, scale, touches, gap, streamLoads, computes, iters int) gridSpec {
	mem := &layout{}
	return gridSpec{name: name, blocks: ciBlocks * scale, warps: ciWarps, mem: mem,
		build: func(b *wb, block, warp int) {
			fresh := mem.array(iters)
			stream := mem.array(iters * streamLoads)
			for i := 0; i < iters && !b.full(); i++ {
				b.loadVec(0, lineAt(fresh, i)) // birth
				for t := 1; t < touches; t++ {
					if i >= t*gap {
						b.loadVec(uint32(t), lineAt(fresh, i-t*gap))
					}
				}
				for st := 0; st < streamLoads; st++ {
					b.loadVec(9, lineAt(stream, i*streamLoads+st))
				}
				b.compute(100, computes)
			}
		}}
}

// gridCFD models Rodinia's CFD solver: per-cell state re-read at RD ~12 —
// beyond even the 32KB cache's 8-way reach, which is why protection
// outperforms doubling the cache here (§6.1.2) — plus streamed flux
// operands.
func gridCFD(scale int) gridSpec {
	return slidingStream("CFD", scale, 3, 2, 0, 3, 150)
}

// gridPVR models Mars' Page View Rank: rank entries re-read at RD ~6
// (recovered by protection or by a 32KB cache) against streaming log
// records.
func gridPVR(scale int) gridSpec {
	return slidingStream("PVR", scale, 3, 1, 1, 2, 170)
}

// gridSS models Mars' Similarity Score: document-vector reuse at RD ~6
// against streamed candidate vectors, with essentially no compute
// between memory operations.
func gridSS(scale int) gridSpec {
	return slidingStream("SS", scale, 3, 1, 1, 0, 190)
}

// gridBFS models Rodinia's BFS: the application the paper dissects in
// Fig. 7 because its memory instructions have wildly different reuse
// patterns: frontier entries re-read back to back (RD 1–4), the visited
// bitmap re-checked a few instructions later (RD 5–8), CSR offsets and
// the cost array once per iteration or slower (RD 9–64), and scattered
// edge lists (>64).
func gridBFS(scale int) gridSpec {
	mem := &layout{}
	edgeLines := 3072 * scale
	edges := mem.array(edgeLines)
	return gridSpec{name: "BFS", blocks: ciBlocks * scale, warps: ciWarps, mem: mem,
		build: func(b *wb, block, warp int) {
			rng := seedFor(13, block, warp)
			const nodes = 70
			frontier := mem.array(nodes)
			visited := mem.array(nodes)
			offsets := mem.array(nodes)
			cost := mem.array(nodes)
			for n := 0; n < nodes && !b.full(); n++ {
				f := lineAt(frontier, n)
				b.loadVec(0, f)                  // insn0: pop frontier entry
				b.loadVec(1, f)                  // insn1: node id re-read: RD 1-4
				b.loadVec(2, lineAt(visited, n)) // insn2: visited bitmap fetch
				b.loadGather(3, []addr.Addr{     // insn3: edge gather: RD >64
					lineAt(edges, rng.Intn(edgeLines)),
					lineAt(edges, rng.Intn(edgeLines)),
				})
				b.loadVec(4, lineAt(offsets, n)) // insn4: CSR offsets fetch
				b.loadGather(5, []addr.Addr{     // insn5: edge gather
					lineAt(edges, rng.Intn(edgeLines)),
				})
				b.loadVec(6, lineAt(visited, n)) // insn6: visited re-check: RD 5-8
				if n > 0 {
					b.loadVec(7, lineAt(offsets, n-1)) // insn7: prior offsets: RD 9-64
					b.storeVec(8, lineAt(cost, n-1))   // insn8: cost update
				}
				b.compute(100, 1)
			}
		}}
}

// gridMM models Mars' untiled matrix multiply: reuse spread across all RD
// ranges (Fig. 3 reports 19.5/35.8/33.2/11.5% for ranges 1–4/5–8/9–64/
// >64). Four structures re-referenced at staggered distances reproduce
// the spread, and distinct PCs per structure let DLP protect selectively
// — the workload shape that motivates per-instruction PDs (§3.3).
func gridMM(scale int) gridSpec {
	mem := &layout{}
	return gridSpec{name: "MM", blocks: ciBlocks * scale, warps: ciWarps, mem: mem,
		build: func(b *wb, block, warp int) {
			const iters = 150
			rowA := mem.array(2 * iters)
			tileB := mem.array(iters)
			panel := mem.array(2 * iters)
			bigC := mem.array(32)
			for i := 0; i < iters && !b.full(); i++ {
				a := lineAt(rowA, 2*i)
				b.loadSpan(0, a, 2)                  // insn0: A row fragment birth
				b.loadSpan(1, a, 2)                  // insn1: immediate re-read: RD 1-4
				b.loadVec(2, lineAt(tileB, i))       // insn2: B tile birth
				b.loadSpan(3, lineAt(panel, 2*i), 2) // insn3: B panel birth
				b.loadVec(4, lineAt(tileB, i))       // insn4: B tile re-read: RD 5-8
				if i > 0 {
					b.loadSpan(5, lineAt(panel, 2*(i-1)), 2) // insn5: panel reuse: RD 9-64
				}
				b.loadVec(6, lineAt(bigC, i%32)) // insn6: C accumulator pass: RD >64
			}
		}}
}

// gridSRK models Polybench's SYRK (C = alpha*A*A^T + beta*C): the A panel
// re-read at RD ~6 against streamed C tiles, with the highest
// density of partially coalesced (span-2) accesses so far.
func gridSRK(scale int) gridSpec {
	mem := &layout{}
	return gridSpec{name: "SRK", blocks: ciBlocks * scale, warps: ciWarps, mem: mem,
		build: func(b *wb, block, warp int) {
			const iters = 150
			panel := mem.array(2 * iters)
			for i := 0; i < iters && !b.full(); i++ {
				b.loadSpan(0, lineAt(panel, 2*i), 2) // panel birth
				if i > 0 {
					b.loadSpan(1, lineAt(panel, 2*(i-1)), 2) // first reuse
				}
				if i > 1 {
					b.loadSpan(2, lineAt(panel, 2*(i-2)), 2) // last reuse: RD ~9
				}
			}
		}}
}

// gridSR2K models SYR2K: two panels re-read at RD ~15 — like CFD, beyond
// the 32KB cache but inside the protection window (§6.1.2) — with the
// access ratio pushed toward 8% by span-3 streaming.
func gridSR2K(scale int) gridSpec {
	mem := &layout{}
	return gridSpec{name: "SR2K", blocks: ciBlocks * scale, warps: ciWarps, mem: mem,
		build: func(b *wb, block, warp int) {
			const iters = 150
			panel := mem.array(2 * iters)
			stream := mem.array(3 * iters)
			for i := 0; i < iters && !b.full(); i++ {
				b.loadSpan(0, lineAt(panel, 2*i), 2)  // panel birth
				b.loadSpan(1, lineAt(stream, 3*i), 3) // streamed second panel
				if i > 0 {
					b.loadSpan(2, lineAt(panel, 2*(i-1)), 2) // first reuse
				}
				if i > 1 {
					b.loadSpan(3, lineAt(panel, 2*(i-2)), 2) // last reuse: RD ~13
				}
			}
		}}
}

// gridKM models Rodinia's K-means: the dominant point array is re-read
// only across outer iterations, at reuse distances far beyond any
// protection window (Fig. 3: mostly >64), while the small assignment
// structure cycles at protectable distances.
func gridKM(scale int) gridSpec {
	mem := &layout{}
	return gridSpec{name: "KM", blocks: ciBlocks * scale, warps: ciWarps, mem: mem,
		build: func(b *wb, block, warp int) {
			points := mem.array(60)
			const reps = 5
			assign := mem.array(reps * 10)
			g := 0
			for r := 0; r < reps && !b.full(); r++ {
				for p := 0; p*6 < 60 && !b.full(); p++ {
					b.loadSpan(0, lineAt(points, p*6), 6) // points: RD >64
					b.loadVec(1, lineAt(assign, g))       // assignment birth
					if g > 0 {
						b.loadVec(2, lineAt(assign, g-1)) // first reuse
					}
					if g > 1 {
						b.loadVec(3, lineAt(assign, g-2)) // last reuse
					}
					g++
				}
			}
		}}
}

// gridSTR models Mars' String Match: the text corpus is re-scanned once
// per keyword with byte-granularity (poorly coalesced) loads — the
// highest memory-access ratio in the suite (Fig. 6) and long reuse
// distances that no scheme can protect; gains come from bypassing the
// congested cache.
func gridSTR(scale int) gridSpec {
	mem := &layout{}
	return gridSpec{name: "STR", blocks: ciBlocks * scale, warps: ciWarps, mem: mem,
		build: func(b *wb, block, warp int) {
			text := mem.array(50)
			const keywords = 6
			kw := mem.array(keywords * 5)
			j := 0
			for k := 0; k < keywords && !b.full(); k++ {
				for l := 0; l+10 <= 50 && !b.full(); l += 10 {
					b.loadSpan(0, lineAt(text, l), 5)
					b.loadSpan(1, lineAt(text, l+5), 5)
					if j%2 == 0 {
						b.loadVec(2, lineAt(kw, j/2)) // keyword state birth
					} else {
						b.loadVec(3, lineAt(kw, j/2)) // re-read: the protectable sliver
					}
					j++
				}
			}
		}}
}
