package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/conform"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestServeSoak is the service-level concurrency storm the tentpole
// exists to survive: hundreds of submissions race over a handful of
// shared simulation points across several tenants, a slice of them
// cancelled mid-flight, all under the race detector (run with -race;
// `make check` does). It pins the acceptance bar end to end:
//
//   - every completed job's stats are byte-identical to a direct
//     (serverless) run of the same point,
//   - shared content addresses simulate exactly once — the single-
//     flight table and result cache absorb the rest,
//   - cancellations land cleanly (terminal state, no stuck jobs),
//   - shutdown drains: after the storm the server stops with every
//     job accounted for and the books balanced.
func TestServeSoak(t *testing.T) {
	points, clients, perClient := 4, 24, 12
	if testing.Short() {
		points, clients, perClient = 3, 8, 5
	}
	total := clients * perClient

	// Ground truth per point, computed without the server.
	specs := make([][]byte, points)
	want := make([][]byte, points)
	for i := range specs {
		specs[i] = testSpec(t, 1000+uint64(i))
		want[i] = directStats(t, specs[i])
	}
	// Cancellation targets get a unique seed per submission (seeds from
	// 100000 up, disjoint from the byte-compare points): no dedup, so
	// each must queue and simulate for itself, giving the DELETE a real
	// window — and a cancelled leader never perturbs the shared-key
	// sims count.
	var cancelSeed atomic.Uint64
	cancelSeed.Store(100_000)

	// Count real simulations per content address through the intercept.
	var simMu sync.Mutex
	simsPerKey := make(map[string]int)
	intercept := func(ctx context.Context, index, attempt int, job runner.Job, run runner.SimFunc) (*stats.Stats, error) {
		simMu.Lock()
		simsPerKey[job.Key()]++
		simMu.Unlock()
		return run(ctx)
	}
	s, ts := startServer(t, Config{
		Workers:    4,
		QueueDepth: total, // soak admission: the storm must not bounce
		Intercept:  intercept,
	})

	var done, cancelled, failures atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{}) // all clients fire together: a real first-wave race
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			tenant := fmt.Sprintf("tenant-%d", c%3)
			<-start
			for i := 0; i < perClient; i++ {
				if i > 0 && rng.Intn(10) == 0 {
					// Cancellation mix: submit async, cancel immediately.
					resp, body := postJob(t, ts, testSpec(t, cancelSeed.Add(1)), tenant, false)
					if resp.StatusCode != http.StatusAccepted {
						failures.Add(1)
						t.Errorf("client %d: async submit status %d: %s", c, resp.StatusCode, body)
						continue
					}
					id := decodeView(t, body).ID
					req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+id, nil)
					dresp, err := ts.Client().Do(req)
					if err != nil {
						failures.Add(1)
						t.Errorf("client %d: DELETE: %v", c, err)
						continue
					}
					b, _ := io.ReadAll(dresp.Body)
					dresp.Body.Close()
					// The race against completion is fair game; the job
					// must simply be terminal afterwards.
					if v := decodeView(t, b); !v.Status.Terminal() {
						failures.Add(1)
						t.Errorf("client %d: job %s non-terminal %q after DELETE", c, id, v.Status)
					} else if v.Status == StatusCancelled {
						cancelled.Add(1)
					}
					continue
				}
				p := rng.Intn(points)
				if i == 0 {
					// Wave one: ~clients/points submitters per point,
					// simultaneously — the cache-hit/single-flight storm.
					p = c % points
				}
				resp, body := postJob(t, ts, specs[p], tenant, true)
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("client %d: wait submit status %d: %s", c, resp.StatusCode, body)
					continue
				}
				v := decodeView(t, body)
				if !bytes.Equal(compact(t, v.Stats), compact(t, want[p])) {
					failures.Add(1)
					t.Errorf("client %d: point %d stats diverged from direct run", c, p)
					continue
				}
				done.Add(1)
			}
		}(c)
	}
	close(start)
	wg.Wait()

	if failures.Load() > 0 {
		t.Fatalf("%d requests misbehaved during the storm", failures.Load())
	}

	// Zero duplicate simulations for the shared byte-compare points:
	// each simulated exactly once, no matter how many clients raced.
	sharedKeys := make(map[string]bool)
	for _, spec := range specs {
		job := buildJob(t, spec)
		sharedKeys[job.Key()] = true
	}
	simMu.Lock()
	for key, n := range simsPerKey {
		if sharedKeys[key] && n != 1 {
			t.Errorf("shared key %.12s... simulated %d times, want exactly 1", key, n)
		}
	}
	simMu.Unlock()

	// The books balance: everything submitted reached a terminal state.
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sv StatsView
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sv.Submitted != int64(total) {
		t.Errorf("submitted = %d, want %d", sv.Submitted, total)
	}
	if settled := sv.Completed + sv.Failed + sv.Cancelled; settled != sv.Submitted {
		t.Errorf("settled %d of %d submitted: completed=%d failed=%d cancelled=%d",
			settled, sv.Submitted, sv.Completed, sv.Failed, sv.Cancelled)
	}
	if sv.Failed != 0 {
		t.Errorf("%d jobs failed during a fault-free storm", sv.Failed)
	}
	if sv.Running != 0 || sv.Queued != 0 {
		t.Errorf("running=%d queued=%d after the storm, want 0/0", sv.Running, sv.Queued)
	}

	// And the server still shuts down cleanly after the abuse.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained := make(chan struct{})
	go func() { s.Shutdown(drainCtx); close(drained) }()
	select {
	case <-drained:
	case <-drainCtx.Done():
		t.Fatal("post-storm shutdown never drained")
	}
	t.Logf("storm: %d done, %d cancelled, %d coalesced, cache %d hits",
		done.Load(), cancelled.Load(), s.Cache().Coalesced(), sv.Cache.Hits)
}

// buildJob resolves a spec into the same runner job the server builds,
// for content-address computation in assertions.
func buildJob(t *testing.T, specBytes []byte) runner.Job {
	t.Helper()
	sp, err := conform.UnmarshalSpec(specBytes)
	if err != nil {
		t.Fatal(err)
	}
	cfg, pol, kernel, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	return runner.Job{
		Config: cfg, Policy: pol, Kernel: kernel,
		Opts: sim.Options{MaxCycles: sp.MaxCycles},
	}
}
