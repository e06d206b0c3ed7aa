package workloads

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/addr"
	"repro/internal/trace"
)

// fanOutInstrs is the shaped instruction count from which Kernel builds
// warps on more than one goroutine. On a two-core host a second worker
// ties or loses up to ~2k instructions and wins from ~4k (~30 % at
// 8k). The constant sits above that crossover and above every kernel
// built where a runner's workers already hold the Ps: the serve
// workloads' kernels (at most 64 warps, ~2.5k instructions) and the
// conformance corpus's synth kernels (at most ~9k). Every Table 2
// application (69k to 1.3M instructions) fans out.
const fanOutInstrs = 1 << 14

// Kernel materializes the whole grid eagerly — byte-identical to what
// the pre-streaming generators produced. One serial shape pass walks
// the layout cursor through every warp, recording each warp's snapshot
// and its instruction and lane counts. Every warp is then built from
// its own snapshot at its final size — its instructions in one
// allocation, all its lane addresses in another — into its slot of the
// kernel. A kernel of fanOutInstrs or more shaped instructions builds
// its warps on min(GOMAXPROCS, warps) goroutines; a smaller one, or any
// kernel under GOMAXPROCS=1, builds them on the caller.
func (g gridSpec) Kernel() *trace.Kernel {
	shapes := make([]warpShape, g.blocks*g.warps)
	at, total := g.mem.next, 0
	var sb wb
	for i := range shapes {
		shapes[i], at = g.shape(&sb, i, at)
		total += shapes[i].n
	}
	k := &trace.Kernel{Name: g.name, Blocks: make([]*trace.Block, g.blocks)}
	for bi := range k.Blocks {
		k.Blocks[bi] = &trace.Block{Warps: make([]*trace.WarpTrace, g.warps)}
	}
	workers := 1
	if total >= fanOutInstrs {
		workers = min(runtime.GOMAXPROCS(0), len(shapes))
	}
	fanOut(workers, len(shapes), func(i int) {
		sh := shapes[i]
		b := &wb{instrs: make([]trace.Instr, 0, sh.n), slab: make([]addr.Addr, sh.lanes), mem: layout{next: sh.at}}
		block, warp := i/g.warps, i%g.warps
		g.build(b, block, warp)
		k.Blocks[block].Warps[warp] = &trace.WarpTrace{Instrs: b.instrs}
	})
	return k
}

// fanOut calls build(i) once for every i in [0, n) on the given number
// of workers: the calling goroutine and workers-1 goroutines it starts,
// each taking the next unbuilt index until none is left. One worker
// runs on the caller alone and starts no goroutine. It returns when
// every worker has stopped. A panic in build is recovered on its
// worker, stops the others at their next index, and is raised again on
// the caller once all have stopped, so whoever recovers a build's
// panics today (a runner, a server) still does.
func fanOut(workers, n int, build func(i int)) {
	var (
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	panics := make([]any, workers)
	work := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				panics[w] = r
				stopped.Store(true)
			}
		}()
		for !stopped.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			build(i)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
}
