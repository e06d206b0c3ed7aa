package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/config"
	"repro/internal/conform"
	"repro/internal/policy"
	"repro/internal/prng"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// suite_batch is the paperfigs user's path: eager kernels, one
// runner.Runner{Workers: 2} with a fresh in-memory cache, Cores = 1.
//
// The grid is CFD, HG, GEMM and SC under all seven registered policies
// plus KM under the four paper schemes: 32 jobs, about 10 s of
// simulation, which two workers finish in about 5 s. (ISSUE 12 named
// STEN and all seven policies on KM; that grid is 16.5 s of simulation
// and does not fit five rounds into the driver's time budget.)
//
// Long jobs run first and in a fixed order, so that no seed can leave a
// worker idle behind a late long job and the completion-time quantiles
// do not follow a shuffle; the seed orders the policies of each cheap
// application, where cost barely depends on the policy.
const suiteWorkers = 2

// The eager applications of the grid; their generation times are also
// ledger entries (workloads.gen_ms.<app>). KM runs the paper schemes only.
var (
	suiteLong  = []string{"CFD", "KM"}
	suiteCheap = []string{"HG", "GEMM", "SC"}
)

type suiteJob struct {
	app    string
	policy config.Policy
}

func (j suiteJob) key() string { return fmt.Sprintf("app:%s:scale1|%s", j.app, j.policy) }

// suiteGrid returns the job list for a seed in run order: the two
// cache-insufficient applications first, alternating, in registry policy
// order; then the cheap applications in rotation, each with its policies
// in seeded order.
func suiteGrid(seed uint64, load float64) []suiteJob {
	var cfd, km []suiteJob
	for _, p := range policy.All() {
		cfd = append(cfd, suiteJob{"CFD", p})
		if spec, _ := policy.Lookup(p); spec.Paper {
			km = append(km, suiteJob{"KM", p})
		}
	}
	var grid []suiteJob
	for i := range cfd {
		grid = append(grid, cfd[i])
		if i < len(km) {
			grid = append(grid, km[i])
		}
	}
	light := suiteCheap
	if load < 1 {
		// Reduced loads (tests) keep only the cheapest application.
		grid, light = nil, []string{"SC"}
	}
	rng := prng.New(seed)
	pols := policy.All()
	order := make([][]int, len(light))
	for a := range light {
		order[a] = rng.Perm(len(pols))
	}
	for i := range pols {
		for a, app := range light {
			grid = append(grid, suiteJob{app, pols[order[a][i]]})
		}
	}
	return grid
}

type suiteRound struct {
	e    *env
	grid []suiteJob
	jobs []runner.Job
}

func newSuiteRound(e *env) round {
	return &suiteRound{e: e, grid: suiteGrid(e.seed, e.load)}
}

// setup is input generation: eager kernel materialisation plus the
// coalesced-line memo, exactly what workloads.Spec.SharedKernel does on
// first use in a paperfigs process.
func (r *suiteRound) setup(ctx context.Context) error {
	cfg := config.Baseline()
	kernels := map[string]*trace.Kernel{}
	var ms0 runtime.MemStats
	if r.e.led != nil {
		runtime.ReadMemStats(&ms0)
	}
	for _, j := range r.grid {
		if kernels[j.app] != nil {
			continue
		}
		spec, err := workloads.ByAbbr(j.app)
		if err != nil {
			return err
		}
		sp := r.e.tr.begin("workloads", "Generate "+j.app, "", 0, r.e.phase)
		t0 := time.Now()
		k := spec.Generate()
		r.e.led.set("workloads.gen_ms."+j.app, ms(time.Since(t0)))
		r.e.tr.end(sp)
		sp = r.e.tr.begin("trace", "PrecomputeCoalesced "+j.app, "", 0, r.e.phase)
		k.PrecomputeCoalesced(cfg.L1D.LineSize)
		r.e.tr.end(sp)
		kernels[j.app] = k
	}
	if r.e.led != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.e.led.set("workloads.gen_allocs", float64(ms1.Mallocs-ms0.Mallocs))
	}
	r.jobs = r.jobs[:0]
	for _, j := range r.grid {
		r.jobs = append(r.jobs, runner.Job{
			Label:  j.key(),
			Config: cfg,
			Policy: j.policy,
			Kernel: kernels[j.app],
		})
	}
	return nil
}

func (r *suiteRound) run(ctx context.Context) (measure, error) {
	run := &runner.Runner{Workers: suiteWorkers, Cache: runner.NewCache(), Cores: 1, KeepGoing: true}
	lat := make([]time.Duration, 0, len(r.jobs))
	spans := make([]int, len(r.jobs))
	slot := make([]int, len(r.jobs))
	busy := make([]bool, suiteWorkers+1)
	parent := r.e.tr.begin("runner", "RunEvents", "", 0, r.e.phase)
	t0 := time.Now()
	// Callbacks are serialized by the runner, so the slices need no lock.
	results, err := run.RunEvents(ctx, r.jobs, func(ev runner.Event) {
		switch ev.Kind {
		case runner.JobStarted:
			s := 1
			for s < suiteWorkers && busy[s] {
				s++
			}
			busy[s], slot[ev.Index] = true, s
			spans[ev.Index] = r.e.tr.begin("sim", "job", ev.Label, s, parent)
		case runner.JobDone:
			lat = append(lat, time.Since(t0))
			r.e.tr.end(spans[ev.Index])
			busy[slot[ev.Index]] = false
		}
	})
	wall := time.Since(t0)
	r.e.tr.end(parent)
	if err != nil {
		// KeepGoing: per-job errors are counted below; anything else
		// (cancellation) ends the run.
		if _, ok := err.(*runner.BatchError); !ok {
			return measure{}, err
		}
	}

	var m measure
	var sum stats.Stats
	var jobWall time.Duration
	ipc := map[suiteJob]float64{}
	for i, res := range results {
		if res.Err != nil {
			r.e.chk.result(r.grid[i].key(), nil, res.Err)
			continue
		}
		norm, nerr := conform.Normalize(res.Stats)
		r.e.chk.result(r.grid[i].key(), norm, nerr)
		m.jobs++
		m.warpInsns += res.Stats.WarpInsns
		sum.Add(res.Stats)
		jobWall += res.Wall
		ipc[r.grid[i]] = res.Stats.IPC()
	}
	m.latencies = lat

	if led := r.e.led; led != nil {
		led.set("runner.makespan_ratio", wall.Seconds()*suiteWorkers/jobWall.Seconds())
		led.set("model.cycles", float64(sum.Cycles))
		led.set("model.warp_insns", float64(sum.WarpInsns))
		led.set("model.l1d_accesses", float64(sum.L1DAccesses))
		led.set("model.l1d_hits", float64(sum.L1DHits))
		led.set("model.l1d_bypasses", float64(sum.L1DBypasses))
		led.set("model.l1d_stalls", float64(sum.L1DStalls))
		led.set("model.l2_accesses", float64(sum.L2Accesses))
		led.set("model.dram_reads", float64(sum.DRAMReads))
		led.set("model.icnt_flits", float64(sum.ICNTFlits))
		// Geomean IPC of DLP over Baseline on the cache-insufficient
		// applications of the grid (CFD, KM).
		logSum, n := 0.0, 0
		for _, app := range suiteLong {
			b, d := ipc[suiteJob{app, config.PolicyBaseline}], ipc[suiteJob{app, config.PolicyDLP}]
			if b > 0 && d > 0 {
				logSum += math.Log(d / b)
				n++
			}
		}
		if n > 0 {
			led.set("model.dlp_ci_speedup", math.Exp(logSum/float64(n)))
		}
	}
	return m, nil
}

func (r *suiteRound) close() { r.jobs = nil }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }
