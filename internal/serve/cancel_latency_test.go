package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/conform"
	"repro/internal/workloads"
)

// doomedSpec is a job that runs for a second or more — a small kernel
// on a machine with one MSHR and very slow DRAM — and spends it in the
// engine's cheapest cycles: an LD/ST head parked on a stall, nothing
// else to do, no cycle the loop may jump.
func doomedSpec(t *testing.T, seed uint64) []byte {
	t.Helper()
	cfg := config.Baseline()
	cfg.L1DMSHRs = 1
	cfg.L1DMissQueue = 1
	cfg.DRAMRowHit = 40000
	cfg.DRAMRowMiss = 40000
	b, err := json.Marshal(conform.Spec{
		Schema: conform.SpecSchema,
		Policy: string(config.PolicyDLP),
		Config: cfg,
		Workload: conform.WorkloadRef{Synth: &workloads.SynthSpec{
			Seed: seed, Blocks: 1, WarpsPerBlock: 2, MemInsnsPerWarp: 12,
			FootprintLines: 4096, HotLines: 8,
			StorePct: 10, GatherPct: 80, HotPct: 10, StridePct: 10,
		}},
		MaxCycles: 1_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDeleteLatencyUnderLoadedWorkers is the host-time bound behind
// handleCancel: with as many engine loops running as there are Ps, a
// DELETE must still be read, cancel its job and be answered within a few
// checkpoint intervals — not after the 10 ms it takes sysmon to poll the
// network for a process whose Ps never go idle.
func TestDeleteLatencyUnderLoadedWorkers(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a timing bound: not under -short or the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	_, ts := startServer(t, Config{Workers: 2})

	status := func(id string) Status {
		resp, err := ts.Client().Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return decodeView(t, b).Status
	}
	cancel := func(id string) time.Duration {
		req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+id, nil)
		t0 := time.Now()
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		d := time.Since(t0)
		resp.Body.Close()
		if v := decodeView(t, b); v.Status != StatusCancelled {
			t.Fatalf("job %s is %s after DELETE", id, v.Status)
		}
		return d
	}

	const trials = 20
	var trips []time.Duration
	for i := 0; i < trials; i++ {
		ids := submitDoomedPair(t, ts, uint64(i))
		for _, id := range ids {
			for deadline := time.Now().Add(5 * time.Second); status(id) != StatusRunning; {
				if time.Now().After(deadline) {
					t.Fatalf("job %s never started", id)
				}
				time.Sleep(time.Millisecond)
			}
		}
		time.Sleep(5 * time.Millisecond) // both workers are in their run loops
		trips = append(trips, cancel(ids[0]))
		cancel(ids[1])
	}
	sort.Slice(trips, func(i, j int) bool { return trips[i] < trips[j] })
	median := trips[trials/2]
	t.Logf("DELETE round trips over %d trials: min %v, median %v, max %v", trials, trips[0], median, trips[trials-1])
	if median > 4*time.Millisecond {
		t.Errorf("median DELETE round trip %v with both workers simulating, want under 4ms", median)
	}
}

func submitDoomedPair(t *testing.T, ts *httptest.Server, trial uint64) [2]string {
	t.Helper()
	var ids [2]string
	for j := range ids {
		resp, body := postJob(t, ts, doomedSpec(t, 1000+2*trial+uint64(j)), "", false)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async submit: status %d: %s", resp.StatusCode, body)
		}
		ids[j] = decodeView(t, body).ID
	}
	return ids
}
