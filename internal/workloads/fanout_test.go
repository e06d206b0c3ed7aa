package workloads

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// atLeastTwoPs raises GOMAXPROCS to 2 for the test, so a kernel over
// trace.FanOutInstrs fans out on any host, and restores it afterwards.
func atLeastTwoPs(t *testing.T) {
	t.Helper()
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// startingGoroutines is the goroutine count a leak check starts from.
// The goroutine of the test before may still be on its way out when
// this test starts, so it waits, up to a second, for the count to stop
// falling.
func startingGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// goid returns the calling goroutine's id, read off its stack header
// ("goroutine 7 [running]:").
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, err := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// readWarp reads every window of warp (block, warp) of src through c,
// copying each out of the chunk it was filled into.
func readWarp(src trace.Stream, c *trace.Chunk, block, warp int) (*trace.WarpTrace, error) {
	w := &trace.WarpTrace{}
	for start, eof := 0, false; !eof; {
		c.Reset()
		var win []trace.Instr
		win, eof, _ = src.Fill(block, warp, start, c)
		if c.Err != nil {
			return nil, fmt.Errorf("block %d warp %d at %d: %w", block, warp, start, c.Err)
		}
		for _, in := range win {
			in.Addrs = slices.Clone(in.Addrs)
			w.Instrs = append(w.Instrs, in)
		}
		start += len(win)
	}
	return w, nil
}

// kernelFromStream assembles a kernel out of src's windows, reading
// its warps in order from the one at global index first onwards.
func kernelFromStream(src trace.Stream, first int) (*trace.Kernel, error) {
	k := &trace.Kernel{Name: src.Name(), Blocks: make([]*trace.Block, src.Blocks())}
	var warps [][2]int
	for bi := range k.Blocks {
		k.Blocks[bi] = &trace.Block{Warps: make([]*trace.WarpTrace, src.Warps(bi))}
		for wi := range k.Blocks[bi].Warps {
			warps = append(warps, [2]int{bi, wi})
		}
	}
	c := trace.NewChunkPool(0).Get()
	for j := range warps {
		bw := warps[(first+j)%len(warps)]
		w, err := readWarp(src, c, bw[0], bw[1])
		if err != nil {
			return nil, err
		}
		k.Blocks[bw[0]].Warps[bw[1]] = w
	}
	return k, nil
}

// overThreshold is a gather-heavy synth spec sized just over
// trace.FanOutInstrs: 32 warps of 520 instructions.
var overThreshold = SynthSpec{
	Name: "fan", Seed: 11, Blocks: 4, WarpsPerBlock: 8, MemInsnsPerWarp: 260, ComputeRun: 1,
	FootprintLines: 2048, StorePct: 20, GatherPct: 40, StreamPct: 20, StridePct: 10, HotPct: 20, ConflictPct: 10,
}

// TestFannedOutKernelMatchesItsStream: a synth kernel just over the
// fan-out threshold, built on two goroutines, is byte for byte the
// kernel its Stream serves window by window on one — and so is STR,
// the smallest Table 2 kernel, whose closure allocates every warp's
// regions through its builder's layout cursor.
func TestFannedOutKernelMatchesItsStream(t *testing.T) {
	atLeastTwoPs(t)
	if n := overThreshold.Kernel().Summarize(lineBytes).WarpInsns; n < trace.FanOutInstrs || n > 2*trace.FanOutInstrs {
		t.Fatalf("synth kernel has %d instructions, want just over the %d threshold", n, trace.FanOutInstrs)
	}
	str, _ := ByAbbr("STR")
	for _, c := range []struct {
		name   string
		kernel func() *trace.Kernel
		stream trace.Stream
	}{
		{"synth", overThreshold.Kernel, overThreshold.Stream()},
		{"STR", str.Generate, str.Stream(1)},
	} {
		streamed, err := kernelFromStream(c.stream, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, _ := c.kernel().Digest()
		want, _ := streamed.Digest()
		if got != want {
			t.Errorf("%s: fanned-out kernel digest %s, its stream's windows %s", c.name, got, want)
		}
	}
}

// TestFreshStreamFillsConcurrently: fills of a stream nothing has read
// yet may run at once (run it under -race): four goroutines, each
// reading every warp from another one onwards, extend the shared shape
// pass as they go and must each assemble the eager kernel.
func TestFreshStreamFillsConcurrently(t *testing.T) {
	want, _ := overThreshold.Kernel().Digest()
	src := overThreshold.Stream()
	warps := src.Blocks() * src.Warps(0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k, err := kernelFromStream(src, g*warps/4)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			if got, _ := k.Digest(); got != want {
				t.Errorf("goroutine %d assembled digest %s, the eager kernel's is %s", g, got, want)
			}
		}(g)
	}
	wg.Wait()
}

// countGrid is a compute-only grid of blocks x warps warps of n
// instructions whose closure calls visit on every warp it builds (not
// on the shape pass).
func countGrid(blocks, warps, n int, visit func(block, warp int)) gridSpec {
	return gridSpec{name: "count", blocks: blocks, warps: warps, build: func(b *wb, block, warp int) {
		if b.skip != math.MaxInt {
			visit(block, warp)
		}
		b.compute(0, n)
	}}
}

// TestSmallKernelsStartNoGoroutine: a kernel below the threshold builds
// every warp on the calling goroutine, and one at the threshold builds
// on min(GOMAXPROCS, warps) goroutines, which its first warps, one per
// worker, prove by waiting for each other.
func TestSmallKernelsStartNoGoroutine(t *testing.T) {
	atLeastTwoPs(t)
	var mu sync.Mutex
	builders := map[uint64]int{}
	record := func(int, int) {
		mu.Lock()
		builders[goid()]++
		mu.Unlock()
	}
	// Each warp sleeps, so a worker, had one been started, would take
	// some of them.
	countGrid(4, 16, (trace.FanOutInstrs-1)/64, func(block, warp int) {
		record(block, warp)
		time.Sleep(50 * time.Microsecond)
	}).Kernel()
	if me := goid(); len(builders) != 1 || builders[me] != 64 {
		t.Errorf("a kernel below the threshold was built by goroutines %v, want only the caller %d", builders, me)
	}

	clear(builders)
	workers := min(runtime.GOMAXPROCS(0), 64)
	arrived := make(chan struct{}, workers)
	countGrid(4, 16, trace.FanOutInstrs/64, func(block, warp int) {
		record(block, warp)
		if block*16+warp < workers {
			arrived <- struct{}{}
			for deadline := time.Now().Add(10 * time.Second); len(arrived) < workers; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Errorf("warp %d: %d of %d workers arrived", warp, len(arrived), workers)
					return
				}
			}
		}
	}).Kernel()
	if len(builders) != workers {
		t.Errorf("a kernel at the threshold was built by goroutines %v, want %d", builders, workers)
	}
}

// TestWorkerPanicReachesTheCaller: a closure that panics on one warp
// panics on the caller with the same value once every build has
// returned, both below the threshold and fanned out, and leaves no
// goroutine behind.
func TestWorkerPanicReachesTheCaller(t *testing.T) {
	atLeastTwoPs(t)
	for _, n := range []int{8, trace.FanOutInstrs / 64} {
		for _, bad := range []int{0, 37} {
			before := startingGoroutines()
			var inflight atomic.Int32
			var got any
			busy := int32(-1)
			func() {
				defer func() { got, busy = recover(), inflight.Load() }()
				countGrid(4, 16, n, func(block, warp int) {
					inflight.Add(1)
					defer inflight.Add(-1)
					if block*16+warp == bad {
						panic("warp failed")
					}
					time.Sleep(100 * time.Microsecond)
				}).Kernel()
			}()
			if got != "warp failed" {
				t.Errorf("%d-instruction warps, warp %d panics: caller recovered %v, want the closure's panic", n, bad, got)
			}
			if busy != 0 {
				t.Errorf("%d-instruction warps, warp %d panics: raised on the caller while %d builds still ran", n, bad, busy)
			}
			// A worker's last act is wg.Done; give it a moment to return.
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("%d-instruction warps, warp %d panics: %d goroutines after, %d before", n, bad, after, before)
			}
		}
	}
}
