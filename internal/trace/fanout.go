package trace

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// FanOutInstrs is the instruction count from which a kernel's warps are
// built (workloads' eager generation) or packed (Kernel.Pack) on more
// than one goroutine. On a two-core host a second worker ties or loses
// up to ~2k generated instructions and wins from ~4k (~30 % at 8k). The
// constant sits above that crossover and above every kernel built or
// packed where a runner's workers already hold the Ps: the serve
// workloads' kernels (at most 64 warps, ~2.5k instructions) and the
// conformance corpus's synth kernels (at most ~9k). Every Table 2
// application (69k to 1.3M instructions) fans out.
const FanOutInstrs = 1 << 14

// FanOutWorkers is the number of workers FanOut should run n items of
// instrs instructions in all on: min(GOMAXPROCS, n) from FanOutInstrs
// on, one (the caller alone) below it.
func FanOutWorkers(instrs, n int) int {
	if instrs < FanOutInstrs {
		return 1
	}
	return max(1, min(runtime.GOMAXPROCS(0), n))
}

// FanOut calls build(w, i) once for every i in [0, n) on the given
// number of workers: the calling goroutine (w = 0) and workers-1
// goroutines it starts (w = 1 .. workers-1), each taking the next
// unbuilt index until none is left. w lets a build use state of its
// worker's own. One worker runs on the caller alone and starts no
// goroutine. It returns when every worker has stopped.
//
// It is the repository's one pool. Its callers: eager generation and
// Kernel.Pack (FanOutWorkers workers), a runner batch (runner.RunEvents,
// min(Workers, jobs) workers, so a one-job batch runs on its caller),
// the conformance replay (cmd/conform, min(-j, cases) workers), and
// WriteFile and Open below.
//
// Two tasks that run beside each other (WriteFile's encoder and its
// hashing writer, Open's hasher and its parser) run as FanOut(2, 2,
// ...), two workers whatever GOMAXPROCS is. That matters because the
// tasks talk through a channel (a handoff): each worker takes one
// task, so the one that waits for the other never holds the worker the
// other needs.
//
// A panic in build is recovered on its worker, stops the others at
// their next index, and is raised again on the caller once all have
// stopped, so a caller that recovers panics (a runner, a server)
// still sees them.
func FanOut(workers, n int, build func(w, i int)) {
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
			build(w, i)
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
