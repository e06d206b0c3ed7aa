package runner

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// streamKernel builds a small deterministic kernel: each warp streams
// over private lines with the given reuse (mirrors internal/sim's test
// helper).
func streamKernel(name string, blocks, warpsPerBlock, linesPerWarp, touches int) *trace.Kernel {
	k := &trace.Kernel{Name: name}
	base := 0
	for b := 0; b < blocks; b++ {
		blk := &trace.Block{}
		for w := 0; w < warpsPerBlock; w++ {
			wt := &trace.WarpTrace{}
			for l := 0; l < linesPerWarp; l++ {
				for t := 0; t < touches; t++ {
					wt.Instrs = append(wt.Instrs,
						trace.NewLoad(uint32(l%8), []addr.Addr{addr.Addr((base + l) * 128)}))
				}
				wt.Instrs = append(wt.Instrs, trace.NewCompute(100, 4, 32))
			}
			base += linesPerWarp
			blk.Warps = append(blk.Warps, wt)
		}
		k.Blocks = append(k.Blocks, blk)
	}
	return k
}

// testJobs builds a batch covering every policy on two kernels.
func testJobs() []Job {
	k1 := streamKernel("a", 2, 2, 6, 2)
	k2 := streamKernel("b", 3, 1, 4, 3)
	var jobs []Job
	for _, k := range []*trace.Kernel{k1, k2} {
		for _, p := range policy.All() {
			jobs = append(jobs, Job{
				Label:  k.Name + " under " + p.String(),
				Config: config.Baseline(),
				Policy: p,
				Kernel: k,
			})
		}
	}
	return jobs
}

// TestOrderIndependence is the runner's key correctness property: the
// same batch at any worker count yields identical results in identical
// order.
func TestOrderIndependence(t *testing.T) {
	run := func(workers int) []Result {
		t.Helper()
		r := &Runner{Workers: workers}
		res, err := r.Run(context.Background(), testJobs())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{2, 8} {
		parallel := run(workers)
		for i := range serial {
			if *serial[i].Stats != *parallel[i].Stats {
				t.Errorf("workers=%d job %d (%s): stats differ\nserial:   %+v\nparallel: %+v",
					workers, i, serial[i].Job.Label, serial[i].Stats, parallel[i].Stats)
			}
		}
	}
}

// TestCacheSecondBatchSimulatesNothing: resubmitting an identical batch
// against a shared cache must perform zero simulations.
func TestCacheSecondBatchSimulatesNothing(t *testing.T) {
	cache := NewCache()
	simulated := 0
	var mu sync.Mutex
	events := func(ev Event) {
		if ev.Kind == JobDone && !ev.Cached {
			mu.Lock()
			simulated++
			mu.Unlock()
		}
	}
	r := &Runner{Workers: 4, Cache: cache, Events: events}

	first, err := r.Run(context.Background(), testJobs())
	if err != nil {
		t.Fatal(err)
	}
	if simulated != len(first) {
		t.Fatalf("first batch simulated %d of %d jobs", simulated, len(first))
	}

	simulated = 0
	second, err := r.Run(context.Background(), testJobs())
	if err != nil {
		t.Fatal(err)
	}
	if simulated != 0 {
		t.Errorf("second batch simulated %d jobs, want 0 (all cached)", simulated)
	}
	for i := range first {
		if !second[i].Cached {
			t.Errorf("job %d not served from cache", i)
		}
		if *first[i].Stats != *second[i].Stats {
			t.Errorf("job %d: cached stats differ from simulated", i)
		}
	}
	if hits, _ := cache.Counters(); hits != uint64(len(first)) {
		t.Errorf("cache hits = %d, want %d", hits, len(first))
	}
}

// TestCachedResultsAreSnapshots: mutating a returned Stats must not
// poison later cache hits.
func TestCachedResultsAreSnapshots(t *testing.T) {
	cache := NewCache()
	r := &Runner{Workers: 1, Cache: cache}
	jobs := testJobs()[:1]
	first, err := r.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := *first[0].Stats
	first[0].Stats.L1DHits = 0xdead // corrupt the caller's copy

	second, err := r.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if *second[0].Stats != want {
		t.Error("cache served a corrupted entry: results alias cache memory")
	}
}

// TestDiskCachePersistsAcrossInstances simulates a fresh process by
// opening a second Cache over the same directory.
func TestDiskCachePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := testJobs()[:2]
	first, err := (&Runner{Workers: 2, Cache: c1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	c2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := (&Runner{Workers: 2, Cache: c2}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !second[i].Cached {
			t.Errorf("job %d not served from the on-disk cache", i)
		}
		if *first[i].Stats != *second[i].Stats {
			t.Errorf("job %d: on-disk result differs from simulated", i)
		}
	}
}

// TestKeyStability pins the content-addressing semantics.
func TestKeyStability(t *testing.T) {
	mk := func() Job {
		return Job{
			Label:  "x",
			Config: config.Baseline(),
			Policy: config.PolicyDLP,
			Kernel: streamKernel("k", 1, 1, 4, 2),
		}
	}
	a, b := mk(), mk()
	if a.Key() != b.Key() {
		t.Error("identical jobs (distinct pointers) hash differently")
	}

	b.Label = "renamed"
	if a.Key() != b.Key() {
		t.Error("label leaked into the cache key")
	}

	c := mk()
	c.Policy = config.PolicyBaseline
	if a.Key() == c.Key() {
		t.Error("policy not part of the cache key")
	}

	d := mk()
	d.Config = config.L1D32KB()
	if a.Key() == d.Key() {
		t.Error("config not part of the cache key")
	}

	// Explicitly spelling the default options must hash like the zero
	// value (the key is built from canonical options)...
	e := mk()
	e.Opts = sim.Options{MaxCycles: 50_000_000}
	if a.Key() != e.Key() {
		t.Error("canonically-equal options hash differently")
	}
	// ...while a genuinely different option changes the key.
	f := mk()
	f.Opts = sim.Options{MaxCycles: 2_000_000}
	if a.Key() == f.Key() {
		t.Error("a different cycle budget hashes like the default")
	}
}

// TestKeyPinned pins the literal content address of two fixed jobs, so
// a change to what Key hashes, or how, cannot silently orphan every
// result already on disk. The engine's background-traffic and
// injection-rate constants are part of the hashed bytes.
func TestKeyPinned(t *testing.T) {
	j := Job{Config: config.Baseline(), Policy: config.PolicyDLP, Kernel: streamKernel("k", 1, 1, 4, 2)}
	for _, c := range []struct {
		maxCycles uint64
		want      string
	}{
		{0, "8879d33001468e354c0a847dfcf0e5721e90199a88fb9a46cd716c27bb11b60f"},
		{2_000_000, "4a91d749c528df012dd350ba802bdc36dc6119a0cae36a79ff8d4f7c5c11335d"},
	} {
		j.Opts.MaxCycles = c.maxCycles
		if got := j.Key(); got != c.want {
			t.Errorf("MaxCycles %d: key %s, want %s", c.maxCycles, got, c.want)
		}
	}
}

// TestFailFast: one broken job aborts the batch with its label attached
// while earlier results remain usable.
func TestFailFast(t *testing.T) {
	jobs := testJobs()
	jobs = append(jobs, Job{
		Label:  "broken",
		Config: config.Baseline(),
		Policy: config.PolicyBaseline,
		Kernel: &trace.Kernel{Name: "empty"}, // fails validation
	})
	_, err := (&Runner{Workers: 2}).Run(context.Background(), jobs)
	if err == nil {
		t.Fatal("broken job did not fail the batch")
	}
	if want := `job "broken"`; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the failing job", err)
	}
}

// TestCancellation: a cancelled context aborts the batch promptly and
// surfaces context.Canceled.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := (&Runner{Workers: 2}).Run(ctx, testJobs())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestEventCounters: the queued/running/done snapshots must be
// internally consistent and finish fully drained.
func TestEventCounters(t *testing.T) {
	jobs := testJobs()
	var (
		mu    sync.Mutex
		last  Event
		fired = map[EventKind]int{}
	)
	events := func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		fired[ev.Kind]++
		if ev.Queued+ev.Running+ev.Done != len(jobs) {
			t.Errorf("counters do not sum to batch size: %+v", ev)
		}
		last = ev
	}
	if _, err := (&Runner{Workers: 4, Events: events}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if fired[JobQueued] != len(jobs) || fired[JobStarted] != len(jobs) || fired[JobDone] != len(jobs) {
		t.Errorf("event counts = %v, want %d of each kind", fired, len(jobs))
	}
	if last.Done != len(jobs) || last.Queued != 0 || last.Running != 0 {
		t.Errorf("final snapshot not drained: %+v", last)
	}
}

// TestZeroJobs: an empty batch is a no-op, not a hang.
func TestZeroJobs(t *testing.T) {
	res, err := (&Runner{}).Run(context.Background(), nil)
	if err != nil || len(res) != 0 {
		t.Errorf("empty batch: res=%v err=%v", res, err)
	}
}

// TestKeyDoesNotRetainKernel: the digest memo lives on the kernel, not
// in a process-wide table, so a kernel that has been keyed (directly and
// through a KernelStream) is garbage once its last reference drops. With
// the old global memo every kernel a process ever keyed stayed reachable.
func TestKeyDoesNotRetainKernel(t *testing.T) {
	collected := make(chan struct{})
	func() {
		k := streamKernel("transient", 2, 2, 6, 2)
		runtime.SetFinalizer(k, func(*trace.Kernel) { close(collected) })
		eager := Job{Config: config.Baseline(), Policy: config.PolicyDLP, Kernel: k}
		streamed := Job{Config: config.Baseline(), Policy: config.PolicyDLP, Stream: trace.NewKernelStream(k)}
		if key := eager.Key(); key == "" || key != streamed.Key() {
			t.Fatalf("eager key %q, streamed key %q: want equal and non-empty", key, streamed.Key())
		}
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("kernel still reachable after Job.Key: something retains it")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestDamagedTraceFileFailsTheJob: a DLPSTRM1 file whose chunks are
// overwritten or cut off after Open, and one that holds an unknown
// instruction kind under a correct checksum, fail the simulation with a
// *trace.FormatError — from sim.RunStreamOnce and from a runner job
// alike — and never with a *JobPanicError.
func TestDamagedTraceFileFailsTheJob(t *testing.T) {
	record := func(t *testing.T, k *trace.Kernel) (string, *trace.FileStream) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "k.dlpstrm")
		if err := trace.WriteFile(path, trace.NewKernelStream(k), 0); err != nil {
			t.Fatal(err)
		}
		fs, err := trace.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		return path, fs
	}
	// indexOff is where the chunk data ends: the footer's first field.
	indexOff := func(t *testing.T, path string) int64 {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return int64(binary.LittleEndian.Uint64(b[len(b)-48:]))
	}
	k := streamKernel("damaged", 2, 2, 40, 2) // 120-instruction warps: two chunks each
	cases := map[string]func(t *testing.T) (string, *trace.FileStream){
		"overwritten": func(t *testing.T) (string, *trace.FileStream) {
			path, fs := record(t, k)
			end := indexOff(t, path)
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// Every chunk that starts in the back half now opens with kind 0xff.
			if _, err := f.WriteAt([]byte(strings.Repeat("\xff", int(end/2))), end-end/2); err != nil {
				t.Fatal(err)
			}
			return path, fs
		},
		"truncated": func(t *testing.T) (string, *trace.FileStream) {
			path, fs := record(t, k)
			if err := os.Truncate(path, indexOff(t, path)/2); err != nil {
				t.Fatal(err)
			}
			return path, fs
		},
		"unknown kind": func(t *testing.T) (string, *trace.FileStream) {
			bad := streamKernel("kind9", 1, 1, 4, 1)
			bad.Blocks[0].Warps[0].Instrs[2] = trace.Instr{Kind: trace.Kind(9), PC: 4, ActiveLanes: 32}
			return record(t, bad)
		},
	}
	for name, damage := range cases {
		t.Run(name, func(t *testing.T) {
			path, fs := damage(t)
			check := func(how string, err error) {
				t.Helper()
				var fe *trace.FormatError
				if !errors.As(err, &fe) || fe.Path != path {
					t.Errorf("%s: error %v, want a *trace.FormatError for %s", how, err, path)
				}
				var jp *JobPanicError
				if errors.As(err, &jp) {
					t.Errorf("%s: the job panicked: %v", how, jp)
				}
			}
			_, err := sim.RunStreamOnce(context.Background(), config.Baseline(), config.PolicyDLP, fs, sim.Options{})
			check("RunStreamOnce", err)
			r := &Runner{Workers: 1, SelfCheck: true}
			_, err = r.Run(context.Background(), []Job{{
				Label: name, Config: config.Baseline(), Policy: config.PolicyDLP, Stream: fs,
			}})
			check("runner job", err)
		})
	}
}
