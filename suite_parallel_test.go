package dlpsim

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/runner"
)

// These tests pin the runner refactor's correctness contract at the
// suite level: RunSuite's tables are identical at any worker count, and
// a shared result cache makes a repeated suite free. They use a small
// app subset so they stay cheap enough for `go test -race -short`,
// which is what exercises the worker pool under the race detector.

func smallApps(t *testing.T) []Workload {
	t.Helper()
	var apps []Workload
	for _, abbr := range []string{"BP", "HS"} {
		w, err := WorkloadByAbbr(abbr)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, w)
	}
	return apps
}

func smallSchemes() []Scheme {
	return []Scheme{
		{"16KB(Baseline)", Baseline, BaselineConfig()},
		{"DLP", DLP, BaselineConfig()},
	}
}

// TestRunSuiteOrderIndependence: the same job set at -j 1 and -j 8
// yields byte-identical SuiteResult tables.
func TestRunSuiteOrderIndependence(t *testing.T) {
	apps := smallApps(t)
	run := func(workers int) *SuiteResult {
		t.Helper()
		res, err := RunSuite(context.Background(), &Runner{Workers: workers}, apps, smallSchemes())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	render := func(r *SuiteResult) string {
		t.Helper()
		tab, err := r.Fig10IPC()
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	serial := run(1)
	parallel := run(8)
	for _, app := range serial.Apps {
		for _, sc := range serial.Schemes {
			a, b := serial.Stats[app.Abbr][sc.Name], parallel.Stats[app.Abbr][sc.Name]
			if *a != *b {
				t.Errorf("%s under %s: -j1 and -j8 stats differ\n%+v\nvs\n%+v",
					app.Abbr, sc.Name, a, b)
			}
		}
	}
	if s, p := render(serial), render(parallel); s != p {
		t.Errorf("rendered tables differ between -j1 and -j8:\n%s\nvs\n%s", s, p)
	}
}

// TestRunSuiteParallelSelfCheckRenderIdentity pins the worker pool end to
// end at the printed-bytes level: the suite on 8 workers with the sampled
// self-checks on must render byte-identically to the plain serial suite.
// It runs in -short mode on purpose — `make check` then drives the pool
// and the invariant sweeps of concurrent engines under the race detector.
func TestRunSuiteParallelSelfCheckRenderIdentity(t *testing.T) {
	apps := smallApps(t)
	render := func(r *Runner) string {
		t.Helper()
		res, err := RunSuite(context.Background(), r, apps, smallSchemes())
		if err != nil {
			t.Fatalf("workers=%d: %v", r.Workers, err)
		}
		var b strings.Builder
		for _, build := range []func() (*Table, error){res.Fig10IPC, res.Fig12aHitRate, res.Fig13ICNT} {
			tab, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if err := tab.Render(&b); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	serial := render(&Runner{Workers: 1})
	parallel := render(&Runner{Workers: 8, SelfCheck: true})
	if serial != parallel {
		t.Errorf("-j8 selfcheck renders differently from serial:\nserial:\n%s\nparallel:\n%s",
			serial, parallel)
	}
}

// TestRunSuiteCacheAvoidsResimulation: with a shared cache, the second
// RunSuite call performs zero simulations and produces the same tables.
func TestRunSuiteCacheAvoidsResimulation(t *testing.T) {
	apps := smallApps(t)
	cache := NewRunCache()
	var (
		mu        sync.Mutex
		simulated int
	)
	r := &Runner{
		Workers: 4,
		Cache:   cache,
		Events: func(ev runner.Event) {
			if ev.Kind == runner.JobDone && !ev.Cached {
				mu.Lock()
				simulated++
				mu.Unlock()
			}
		},
	}

	first, err := RunSuite(context.Background(), r, apps, smallSchemes())
	if err != nil {
		t.Fatal(err)
	}
	wantJobs := len(apps) * len(smallSchemes())
	if simulated != wantJobs {
		t.Fatalf("first suite simulated %d jobs, want %d", simulated, wantJobs)
	}

	simulated = 0
	second, err := RunSuite(context.Background(), r, apps, smallSchemes())
	if err != nil {
		t.Fatal(err)
	}
	if simulated != 0 {
		t.Errorf("second suite simulated %d jobs, want 0 (all cached)", simulated)
	}
	for _, app := range first.Apps {
		for _, sc := range first.Schemes {
			if *first.Stats[app.Abbr][sc.Name] != *second.Stats[app.Abbr][sc.Name] {
				t.Errorf("%s under %s: cached suite differs", app.Abbr, sc.Name)
			}
		}
	}
}

// TestRunSuiteCancelled: a cancelled context fails the suite instead of
// silently returning partial tables, and so does an empty scheme list
// instead of panicking.
func TestRunSuiteCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() (*SuiteResult, error){
		"cancelled":  func() (*SuiteResult, error) { return RunSuite(ctx, nil, smallApps(t), smallSchemes()) },
		"no schemes": func() (*SuiteResult, error) { return RunSuite(context.Background(), nil, smallApps(t), nil) },
	} {
		if _, err := run(); err == nil {
			t.Errorf("%s RunSuite reported success", name)
		}
	}
}
