package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/conform"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// bigSpec is a distinct synth job per seed whose kernel is ~330 KB, two
// orders of magnitude more than what a settled job keeps (its normalized
// stats, view and events), and which simulates in about a millisecond.
func bigSpec(t *testing.T, seed, maxCycles uint64) []byte {
	t.Helper()
	b, err := conform.MarshalSpec(&conform.Spec{
		Schema: conform.SpecSchema,
		Policy: string(config.PolicyDLP),
		Workload: conform.WorkloadRef{Synth: &workloads.SynthSpec{
			Seed: seed, Blocks: 4, WarpsPerBlock: 4, MemInsnsPerWarp: 64, FootprintLines: 64,
		}},
		MaxCycles: maxCycles,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// jobByID returns a recorded job.
func jobByID(t *testing.T, s *Server, id string) *jobState {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	if !ok {
		t.Fatalf("no job %s", id)
	}
	return js
}

// TestFinishedJobsHoldNoKernel: a job lets go of its kernel the moment
// it settles — done, failed, cancelled while queued or cancelled while
// running — with no shutdown involved, and its view, events and stats,
// and the server's counters, still serve.
func TestFinishedJobsHoldNoKernel(t *testing.T) {
	// Seed 7 hangs in the worker until it is cancelled.
	intercept := func(ctx context.Context, index, attempt int, job runner.Job, run runner.SimFunc) (*stats.Stats, error) {
		if strings.Contains(job.Label, "seed=7)") {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return run(ctx)
	}
	s, ts := startServer(t, Config{Workers: 1, Intercept: intercept})
	post := func(body []byte, wait bool) string {
		t.Helper()
		_, b := postJob(t, ts, body, "", wait)
		return decodeView(t, b).ID
	}
	del := func(id string) {
		t.Helper()
		req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+id, nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	running := post(bigSpec(t, 7, 2_000_000), false)
	for jobByID(t, s, running).view(false).Status != StatusRunning {
		time.Sleep(time.Millisecond)
	}
	queued := post(bigSpec(t, 8, 2_000_000), false)
	del(queued)
	del(running)
	<-jobByID(t, s, running).done
	done := post(bigSpec(t, 9, 2_000_000), true)
	failed := post(bigSpec(t, 10, 100), true) // out of cycles

	want := map[string]Status{running: StatusCancelled, queued: StatusCancelled, done: StatusDone, failed: StatusFailed}
	for id, status := range want {
		js := jobByID(t, s, id)
		js.mu.Lock()
		k, got := js.rjob.Kernel, js.status
		js.mu.Unlock()
		if got != status {
			t.Errorf("job %s is %s, want %s", id, got, status)
		}
		if k != nil {
			t.Errorf("%s job %s still holds its kernel", got, id)
		}
		for _, path := range []string{"/jobs/" + id, "/jobs/" + id + "/events"} {
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s: status %d", path, resp.StatusCode)
			}
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/jobs/" + done + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stats of the done job: status %d", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sv StatsView
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	if sv.Completed != 1 || sv.Failed != 1 || sv.Cancelled != 2 {
		t.Errorf("/stats counts %d done, %d failed, %d cancelled; want 1, 1, 2",
			sv.Completed, sv.Failed, sv.Cancelled)
	}
}

// TestHeapFlatOverJobCount is the memory bound of a long-lived server:
// what N more distinct jobs leave on the heap after a collection is the
// bounded history's records and answers, not N kernels. Each job's
// kernel (~330 KB) is far above the slack, so a history that pinned its
// kernels would grow by megabytes here. And once the server has shut
// down, none of its goroutines is left.
func TestHeapFlatOverJobCount(t *testing.T) {
	const n = 8
	const slack = 512 << 10
	goroutines := runtime.NumGoroutine()
	s, ts := startServer(t, Config{Workers: 2})
	seed := uint64(1000)
	batch := func() uint64 {
		for i := 0; i < n; i++ {
			seed++
			if resp, b := postJob(t, ts, bigSpec(t, seed, 2_000_000), "", true); resp.StatusCode != http.StatusOK {
				t.Fatalf("job %d: status %d: %s", seed, resp.StatusCode, b)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	after1 := batch()
	after2 := batch()
	t.Logf("live heap: %d KB after %d jobs, %d KB after %d", after1>>10, n, after2>>10, 2*n)
	if after2 > after1+slack {
		t.Errorf("the live heap grew by %d KB over %d more jobs (%d KB after %d, %d KB after %d); want at most %d KB",
			(after2-after1)>>10, n, after1>>10, n, after2>>10, 2*n, slack>>10)
	}

	s.Shutdown(nil)
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("%d goroutines after the shutdown, %d before the server started", got, goroutines)
	}
}

// TestLargeJobLeavesNoMachine: a slot keeps no machine larger than the
// presets. One job on a machine with twice Baseline's SMs and 32 times
// its L1D sets (~8 MB of tag arrays and VTAs) runs between two batches
// of Baseline jobs on a one-slot server; after the second batch the live
// heap is where the first left it. A slot that kept the large machine,
// or the storage its first 16 SMs grew to, would hold megabytes more.
func TestLargeJobLeavesNoMachine(t *testing.T) {
	const n = 4
	const slack = 512 << 10
	_, ts := startServer(t, Config{Workers: 1})
	seed := uint64(2000)
	run := func(body []byte) {
		t.Helper()
		if resp, b := postJob(t, ts, body, "", true); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
	}
	batch := func() uint64 {
		for i := 0; i < n; i++ {
			seed++
			run(bigSpec(t, seed, 2_000_000))
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := batch()

	large := config.Baseline()
	large.NumSMs, large.L1D.Sets = 32, 1024
	body, err := conform.MarshalSpec(&conform.Spec{
		Schema: conform.SpecSchema,
		Policy: string(config.PolicyDLP),
		Config: large,
		Workload: conform.WorkloadRef{Synth: &workloads.SynthSpec{
			Seed: 1, Blocks: 4, WarpsPerBlock: 4, MemInsnsPerWarp: 64, FootprintLines: 64,
		}},
		MaxCycles: 2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	run(body)

	after := batch()
	t.Logf("live heap: %d KB after %d Baseline jobs, %d KB after a large one and %d more", before>>10, n, after>>10, n)
	if after > before+slack {
		t.Errorf("the live heap grew by %d KB across one large job (%d KB before, %d KB after); want at most %d KB",
			(after-before)>>10, before>>10, after>>10, slack>>10)
	}
}
