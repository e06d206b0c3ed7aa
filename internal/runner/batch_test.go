package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

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

// settledGoroutines waits up to a second for the goroutine count to
// fall back to before (a worker's last act is wg.Done) and returns it.
func settledGoroutines(before int) int {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestOneJobBatchRunsOnTheCaller: a batch of one job starts no
// goroutine, whatever Workers says: its simulation runs on the
// goroutine that called Run, so the count inside the simulation is the
// count before Run.
func TestOneJobBatchRunsOnTheCaller(t *testing.T) {
	before := startingGoroutines()
	inside := -1
	r := &Runner{Workers: 4, Intercept: func(ctx context.Context, _, _ int, _ Job, run SimFunc) (*stats.Stats, error) {
		inside = runtime.NumGoroutine()
		return run(ctx)
	}}
	if _, err := r.Run(context.Background(), []Job{tinyJob("alone")}); err != nil {
		t.Fatal(err)
	}
	if inside != before {
		t.Errorf("%d goroutines while the one job ran, %d before Run", inside, before)
	}
}

// TestFailFastStartsNoLaterJob: on one worker, a fail-fast batch whose
// first job fails starts none of the others: no JobStarted event and no
// simulation for any of them. Twenty batches, so a dispatch that races
// the cancellation would show.
func TestFailFastStartsNoLaterJob(t *testing.T) {
	errFirst := errors.New("the first job fails")
	for round := 0; round < 20; round++ {
		var (
			mu        sync.Mutex
			started   []int
			simulated []int
		)
		r := &Runner{
			Workers: 1,
			Events: func(ev Event) {
				if ev.Kind == JobStarted {
					started = append(started, ev.Index)
				}
			},
			Intercept: func(ctx context.Context, index, _ int, _ Job, run SimFunc) (*stats.Stats, error) {
				mu.Lock()
				simulated = append(simulated, index)
				mu.Unlock()
				if index == 0 {
					return nil, errFirst
				}
				return run(ctx)
			},
		}
		jobs := make([]Job, 8)
		for i := range jobs {
			jobs[i] = tinyJob(fmt.Sprintf("ff-%d", i))
		}
		res, err := r.Run(context.Background(), jobs)
		if !errors.Is(err, errFirst) {
			t.Fatalf("round %d: Run returned %v, want the first job's error", round, err)
		}
		mu.Lock()
		if len(started) != 1 || len(simulated) != 1 {
			t.Errorf("round %d: jobs %v started and %v simulated, want job 0 alone", round, started, simulated)
		}
		mu.Unlock()
		for i := 1; i < len(res); i++ {
			if res[i].Stats != nil || res[i].Err != nil {
				t.Errorf("round %d: job %d has a result (%v) though it never started", round, i, res[i].Err)
			}
		}
	}
}

// TestBatchLeavesNoGoroutine: a batch of 8 jobs on 4 workers joins
// every worker it started before Run returns.
func TestBatchLeavesNoGoroutine(t *testing.T) {
	before := startingGoroutines()
	peak := 0
	var mu sync.Mutex
	r := &Runner{Workers: 4, Intercept: func(ctx context.Context, _, _ int, _ Job, run SimFunc) (*stats.Stats, error) {
		mu.Lock()
		peak = max(peak, runtime.NumGoroutine())
		mu.Unlock()
		return run(ctx)
	}}
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = tinyJob(fmt.Sprintf("pool-%d", i))
	}
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if peak <= before {
		t.Errorf("the batch ran on %d goroutines, no more than the %d before it", peak, before)
	}
	if after := settledGoroutines(before); after != before {
		t.Errorf("%d goroutines after the batch, %d before", after, before)
	}
}

// TestEventsPanicReachesTheCaller: an Events callback that panics is
// not a job's failure. The panic reaches the goroutine that called Run,
// after the batch's other workers have stopped, and the Runner runs the
// next batch as before.
func TestEventsPanicReachesTheCaller(t *testing.T) {
	before := startingGoroutines()
	armed := true
	r := &Runner{Workers: 2, Events: func(ev Event) {
		if armed && ev.Kind == JobDone && ev.Index == 1 {
			panic("callback failed")
		}
	}}
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = tinyJob(fmt.Sprintf("cb-%d", i))
	}
	var got any
	func() {
		defer func() { got = recover() }()
		r.Run(context.Background(), jobs)
	}()
	if got != "callback failed" {
		t.Errorf("the caller recovered %v, want the callback's panic", got)
	}
	if after := settledGoroutines(before); after != before {
		t.Errorf("%d goroutines after the panic, %d before", after, before)
	}
	armed = false
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Errorf("the next batch on the Runner: %v", err)
	}
}
