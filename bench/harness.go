package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is what one round of a workload is built from. The program under
// test receives only the inputs generated from seed.
type env struct {
	seed uint64
	// load scales a round's fixed work; 1 is the committed size, tests
	// run a fraction. Reduced loads run a prefix of the full job list,
	// so committed digests still apply.
	load float64
	tr   *tracer // nil with tracing off
	chk  *checker
	tmp  string  // scratch directory inside the checkout
	led  *ledger // per-layer samples; nil with tracing off
	// phase is the span of the set-up or timed phase in progress, the
	// parent of the spans a round records (-1 with tracing off).
	phase int
}

// scaled applies the load factor to a count, keeping at least min.
func (e *env) scaled(n, min int) int {
	s := int(float64(n)*e.load + 0.5)
	if s < min {
		s = min
	}
	return s
}

// round is one fresh set-up plus one timed phase of a workload.
type round interface {
	// setup generates inputs and boots whatever the phase needs. It is
	// timed as the round's set-up.
	setup(ctx context.Context) error
	// run is the timed phase.
	run(ctx context.Context) (measure, error)
	// close releases the round's resources, untimed.
	close()
}

// measure is what a timed phase reports besides its wall and CPU time.
type measure struct {
	jobs      int             // operations completed
	warpInsns uint64          // simulated warp instructions retired (exact)
	latencies []time.Duration // client-observed submit -> result, per operation
}

type workload struct {
	def      workloadDef
	newRound func(e *env) round
	// minBeyond is the sample support the latency percentiles must have.
	// The serve workloads are sized for the full rule; the two batch
	// workloads complete a few dozen jobs per round, so their latency
	// rows are completion-time quantiles of the batch and are reported
	// without it (README.md, "Latency on the batch workloads").
	minBeyond int
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads() {
		if w.def.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// roundStats is one round as measured.
type roundStats struct {
	setup, wall, cpu time.Duration
	m                measure
}

func (r roundStats) jobsPerS() float64 { return float64(r.m.jobs) / r.wall.Seconds() }

// latencyMS is the round's nearest-rank p50 and p90 latency.
func (r roundStats) latencyMS(beyond int) (p50, p90 float64, err error) {
	lat := sortedMS(r.m.latencies)
	if p50, err = percentile(lat, 50, beyond); err != nil {
		return 0, 0, err
	}
	p90, err = percentile(lat, 90, beyond)
	return p50, p90, err
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runRound executes one round: fresh set-up (timed), timed phase, close.
func runRound(ctx context.Context, w workload, e *env) (roundStats, error) {
	runtime.GC() // every round starts from a collected heap
	r := w.newRound(e)
	defer r.close()
	var rs roundStats
	e.phase = e.tr.begin("bench", "setup", w.def.Name, 0, -1)
	t0 := time.Now()
	if err := r.setup(ctx); err != nil {
		return rs, fmt.Errorf("%s set-up: %w", w.def.Name, err)
	}
	rs.setup = time.Since(t0)
	e.tr.end(e.phase)

	e.phase = e.tr.begin("bench", "timed phase", w.def.Name, 0, -1)
	c0 := cpuTime()
	t0 = time.Now()
	m, err := r.run(ctx)
	rs.wall = time.Since(t0)
	rs.cpu = cpuTime() - c0
	e.tr.end(e.phase)
	if err != nil {
		return rs, fmt.Errorf("%s timed phase: %w", w.def.Name, err)
	}
	rs.m = m
	return rs, nil
}

// bestRound is the round with the highest jobs_per_s, named in the
// provenance line.
func bestRound(rounds []roundStats) int {
	best := 0
	for i, r := range rounds {
		if r.jobsPerS() > rounds[best].jobsPerS() {
			best = i
		}
	}
	return best
}

// roundSpread is (max-min)/min of the rounds' timed walls, a diagnostic.
func roundSpread(rounds []roundStats) float64 {
	var walls []float64
	for _, r := range rounds {
		walls = append(walls, r.wall.Seconds())
	}
	lo := minOf(walls)
	return (maxOf(walls) - lo) / lo
}

// roundsFor turns -seconds into a round count.
func roundsFor(seconds int) int {
	n := seconds / nominalRoundSeconds
	if n < 1 {
		n = 1
	}
	if n > maxRounds {
		n = maxRounds
	}
	return n
}

// runRounds runs up to n identical rounds. A round is started only while
// the run is inside its time budget, so a slow host costs rounds, not an
// overrun; the first round always runs.
func runRounds(ctx context.Context, w workload, e *env, n int, budget time.Duration, logf func(string, ...any)) ([]roundStats, error) {
	start := time.Now()
	var rounds []roundStats
	var last time.Duration
	for i := 0; i < n; i++ {
		if i > 0 && time.Since(start)+last > budget {
			logf("round %d skipped: %.1fs used of a %.1fs budget", i+1, time.Since(start).Seconds(), budget.Seconds())
			break
		}
		t0 := time.Now()
		rs, err := runRound(ctx, w, e)
		if err != nil {
			return rounds, err
		}
		last = time.Since(t0)
		rounds = append(rounds, rs)
		p50, p90, _ := rs.latencyMS(0)
		logf("round %d: setup %.3fs  wall %.3fs  cpu %.3fs  %d jobs  %.2f jobs/s  p50 %.4gms  p90 %.4gms",
			i+1, rs.setup.Seconds(), rs.wall.Seconds(), rs.cpu.Seconds(), rs.m.jobs, rs.jobsPerS(), p50, p90)
	}
	return rounds, nil
}

// endToEndMetrics reads the seven end-to-end metrics off a run's rounds.
// Every time-based metric is the best of its per-round values: on the
// shared reference host, noise only ever slows a round, so the best of
// identical rounds is the steadiest estimate of what the code can do.
// Each metric takes its own best, so a round that was disturbed only
// during its set-up, or only at its tail, still counts where it is clean.
func endToEndMetrics(w workload, rounds []roundStats) (map[string]metricValue, error) {
	var setup, wips, jps, p50s, p90s, cpu []float64
	for _, r := range rounds {
		p50, p90, err := r.latencyMS(w.minBeyond)
		if err != nil {
			return nil, err
		}
		setup = append(setup, r.setup.Seconds())
		wips = append(wips, float64(r.m.warpInsns)/r.wall.Seconds())
		jps = append(jps, r.jobsPerS())
		p50s = append(p50s, p50)
		p90s = append(p90s, p90)
		cpu = append(cpu, r.cpu.Seconds())
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"setup_s":          minOf(setup),
		"warp_insns_per_s": maxOf(wips),
		"jobs_per_s":       maxOf(jps),
		"latency_p50_ms":   minOf(p50s),
		"latency_p90_ms":   minOf(p90s),
		"cpu_s":            minOf(cpu),
		"peak_rss_mb":      rss,
	}
	out := map[string]metricValue{}
	for _, d := range endToEnd {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out, nil
}
