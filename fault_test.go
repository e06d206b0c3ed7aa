package dlpsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// These tests pin the ISSUE's acceptance scenario for the fault-tolerant
// execution layer end to end, at the public API: a 36-job suite with
// injected panics, one corrupted disk-cache entry and one wedged job
// completes in KeepGoing mode with exactly the faulted cells FAILED,
// byte-identical at -j 1 and -j 8; and SelfCheck never changes output.

// faultKernel builds a small deterministic synthetic kernel; stride
// differentiates the apps' access patterns (and so their stats).
func faultKernel(name string, stride int) *Kernel {
	k := &Kernel{Name: name}
	blk := &Block{}
	for w := 0; w < 2; w++ {
		wt := &WarpTrace{}
		for l := 0; l < 6; l++ {
			wt.Instrs = append(wt.Instrs, NewLoad(uint32(l), []Addr{Addr((w*6 + l) * stride)}))
			wt.Instrs = append(wt.Instrs, NewCompute(50, 4, 32))
		}
		blk.Warps = append(blk.Warps, wt)
	}
	k.Blocks = append(k.Blocks, blk)
	return k
}

// faultBatch builds the 9 apps x 4 paper policies = 36-job grid,
// app-major. The paper subset is deliberate: the injected fault
// indices below name specific cells of this grid, which must not
// shift as extension schemes join the registry.
func faultBatch() (jobs []Job, appNames []string) {
	cfg := BaselineConfig()
	for a := 0; a < 9; a++ {
		name := fmt.Sprintf("app%d", a)
		appNames = append(appNames, name)
		k := faultKernel(name, 128*(a+1))
		for _, pol := range PaperPolicies() {
			jobs = append(jobs, Job{
				Label:  fmt.Sprintf("%s under %s", name, pol),
				Config: cfg,
				Policy: pol,
				Kernel: k,
			})
		}
	}
	return jobs, appNames
}

func TestFaultTolerantSuiteAcceptance(t *testing.T) {
	// Faulted submission indices: two panics and one job that hangs
	// until its deadline. Everything else must complete.
	const (
		panicA = 7
		panicB = 22
		hangC  = 13
	)
	wantFailed := map[int]bool{panicA: true, panicB: true, hangC: true}

	run := func(workers int) (string, uint64) {
		t.Helper()
		jobs, appNames := faultBatch()
		dir := t.TempDir()

		// Warm the disk cache with one healthy job, then damage its
		// entry the way bit-rot would.
		warm, err := OpenRunCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunJobs(context.Background(), jobs[:1], &Runner{Workers: 1, Cache: warm}); err != nil {
			t.Fatal(err)
		}
		key := jobs[0].Key()
		if key == "" {
			t.Fatal("acceptance job unexpectedly uncacheable")
		}
		if err := faultinject.CorruptEntry(dir, key); err != nil {
			t.Fatal(err)
		}

		plan := faultinject.NewPlan(42)
		plan.Set(panicA, faultinject.Fault{Kind: faultinject.Panic})
		plan.Set(panicB, faultinject.Fault{Kind: faultinject.Panic})
		plan.Set(hangC, faultinject.Fault{Kind: faultinject.Hang})

		cache, err := OpenRunCache(dir) // fresh process over the damaged dir
		if err != nil {
			t.Fatal(err)
		}
		results, err := RunJobs(context.Background(), jobs, &Runner{
			Workers:   workers,
			Cache:     cache,
			KeepGoing: true,
			Retries:   1,
			Timeout:   200 * time.Millisecond,
			Intercept: plan.Intercept(),
		})

		// The batch ran to completion and aggregated exactly the
		// injected failures, in submission order.
		var be *BatchError
		if !errors.As(err, &be) {
			t.Fatalf("workers=%d: err = %v, want *BatchError", workers, err)
		}
		if be.Total != 36 || len(be.Failures) != 3 {
			t.Fatalf("workers=%d: %d/%d failures, want 3/36", workers, len(be.Failures), be.Total)
		}
		for fi, want := range []int{panicA, hangC, panicB} {
			if be.Failures[fi].Index != want {
				t.Errorf("workers=%d: failure %d at index %d, want %d",
					workers, fi, be.Failures[fi].Index, want)
			}
		}

		// The corrupted entry was quarantined and its job resimulated,
		// not served stale and not failed.
		if !faultinject.IsQuarantined(dir, key) {
			t.Errorf("workers=%d: corrupted entry not quarantined as .corrupt", workers)
		}
		if results[0].Cached {
			t.Errorf("workers=%d: corrupted entry was served from the cache", workers)
		}
		if results[0].Err != nil || results[0].Stats == nil {
			t.Errorf("workers=%d: corrupted-entry job did not resimulate cleanly: %v",
				workers, results[0].Err)
		}

		// Exactly the faulted cells lack results.
		for i, res := range results {
			if wantFailed[i] != (res.Stats == nil) {
				t.Errorf("workers=%d: job %d: stats-missing=%v, want failed=%v",
					workers, i, res.Stats == nil, wantFailed[i])
			}
		}

		// Render the (policy x app) table the way the CLIs do: failed
		// points become NaN, which prints as FAILED.
		tab := &Table{Title: "fault acceptance: IPC", Apps: appNames}
		for pi, pol := range PaperPolicies() {
			vals := make([]float64, len(appNames))
			for a := range appNames {
				if st := results[a*len(PaperPolicies())+pi].Stats; st != nil {
					vals[a] = st.IPC()
				} else {
					vals[a] = math.NaN()
				}
			}
			if err := tab.AddSeries(pol.String(), vals); err != nil {
				t.Fatal(err)
			}
		}
		var b strings.Builder
		if err := tab.Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String(), cache.Quarantined()
	}

	serialTable, q1 := run(1)
	parallelTable, q8 := run(8)

	if serialTable != parallelTable {
		t.Errorf("tables differ between -j 1 and -j 8:\n-j1:\n%s\n-j8:\n%s",
			serialTable, parallelTable)
	}
	if got := strings.Count(serialTable, "FAILED"); got != len(wantFailed) {
		t.Errorf("table has %d FAILED cells, want %d:\n%s", got, len(wantFailed), serialTable)
	}
	if q1 != 1 || q8 != 1 {
		t.Errorf("quarantine counts = %d (j1), %d (j8); want 1 each", q1, q8)
	}
}

// TestPhasePanicSurfacesAsJobPanicError proves the fault boundary holds
// across both parallelism levels: a panic raised on an engine phase
// worker (Options.Cores > 1) crosses the phase barrier as a typed
// *PhasePanicError, is rethrown on the job's goroutine, and the runner
// recovers it into a *JobPanicError whose Value is that phase error —
// while every healthy neighbour in the batch completes.
func TestPhasePanicSurfacesAsJobPanicError(t *testing.T) {
	jobs, _ := faultBatch()
	jobs = jobs[:4]
	const faulted = 1
	jobs[faulted].Label = "phase fault"
	// Explicit Opts.Cores bypasses the runner's GOMAXPROCS cap, so the
	// phase pool really spins up even on a single-CPU test box.
	jobs[faulted].Opts = Options{
		Cores: 2,
		PhaseHook: func(worker int, cycle uint64) {
			if worker == 1 && cycle >= 3 {
				panic("injected phase fault")
			}
		},
	}

	results, err := RunJobs(context.Background(), jobs, &Runner{Workers: 2, KeepGoing: true})
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BatchError", err)
	}
	if len(be.Failures) != 1 || be.Failures[0].Index != faulted {
		t.Fatalf("failures = %+v, want exactly job %d", be.Failures, faulted)
	}

	var jpe *JobPanicError
	if !errors.As(results[faulted].Err, &jpe) {
		t.Fatalf("job error = %v, want *JobPanicError", results[faulted].Err)
	}
	ppe, ok := jpe.Value.(*PhasePanicError)
	if !ok {
		t.Fatalf("recovered panic value is %T, want *PhasePanicError", jpe.Value)
	}
	if ppe.Worker != 1 {
		t.Errorf("phase panic on worker %d, want 1", ppe.Worker)
	}
	if ppe.Value != "injected phase fault" {
		t.Errorf("phase panic value = %v, want the injected fault", ppe.Value)
	}
	if !strings.Contains(string(ppe.Stack), "runSpans") {
		t.Errorf("phase panic stack does not show the phase worker:\n%s", ppe.Stack)
	}

	for i, res := range results {
		if i == faulted {
			continue
		}
		if res.Err != nil || res.Stats == nil {
			t.Errorf("healthy job %d did not complete: %v", i, res.Err)
		}
	}
}

// TestSelfCheckOutputIdentical: a clean suite with SelfCheck enabled
// renders byte-identically to one without it — the invariant sweeps
// observe, never steer.
func TestSelfCheckOutputIdentical(t *testing.T) {
	apps := smallApps(t)
	render := func(selfCheck bool) string {
		t.Helper()
		res, err := RunSuite(context.Background(), smallSchemes(),
			&SuiteOptions{Runner: &Runner{SelfCheck: selfCheck}, Apps: apps})
		if err != nil {
			t.Fatalf("selfcheck=%v: %v", selfCheck, err)
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
	plain := render(false)
	checked := render(true)
	if plain != checked {
		t.Errorf("SelfCheck changed suite output:\nwithout:\n%s\nwith:\n%s", plain, checked)
	}
}
