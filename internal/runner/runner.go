// Package runner is the shared execution layer for cycle-level
// simulation experiments: it runs batches of independent simulation
// jobs on a bounded worker pool, deduplicates repeated points through a
// content-addressed result cache, threads context cancellation into the
// engine's cycle loop, and reports structured progress events.
//
// Every experiment driver in the repository — the figure suite
// (RunSuite), the ablation sweeps, and the CLIs — builds a []Job and
// hands it to a Runner instead of hand-rolling its own loop over
// sim.RunOnce. Results always come back in submission order, so callers
// keep deterministic output no matter how the pool schedules the work:
// same jobs, any schedule, any worker count → same tables.
//
// The runner is also the repository's fault boundary. A panicking job
// is recovered into a *JobPanicError instead of killing the process; a
// job exceeding its wall-clock budget (Runner.Timeout) fails with
// context.DeadlineExceeded without touching its neighbours; and in
// KeepGoing mode the batch always runs to completion, aggregating
// failures into one *BatchError so suites can render partial tables
// with explicit FAILED cells. A failed job is never retried: the engine
// is deterministic, so a second attempt would fail the same way.
//
// Jobs may share *config.Config and *trace.Kernel values freely: both
// are read-only during simulation (each engine keeps its own mutable
// state), which is what makes kernel reuse across schemes safe under
// concurrency.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Job is one simulation point: a hardware configuration, an L1D
// management policy, a kernel, and engine options.
type Job struct {
	// Label identifies the job in progress events and error messages,
	// e.g. "CFD under DLP". It does not affect the cache key.
	Label  string
	Config *config.Config
	Policy config.Policy
	Kernel *trace.Kernel
	// Stream, when non-nil, runs the job against a lazily generated
	// kernel stream (sim.RunStreamOnce) instead of a materialized
	// kernel. Exactly one of Kernel and Stream must be set; a job with
	// both fails rather than guessing which trace the caller meant.
	Stream trace.Stream
	Opts   sim.Options
}

// Result is one job's outcome, in the same position as its job in the
// submitted batch.
type Result struct {
	Job    Job
	Stats  *stats.Stats
	Err    error
	Cached bool          // served from the result cache, no simulation ran
	Wall   time.Duration // simulation wall time (0 when Cached)
}

// EventKind classifies a progress event.
type EventKind int

const (
	// JobQueued fires once per job when the batch is accepted.
	JobQueued EventKind = iota
	// JobStarted fires when a worker picks the job up.
	JobStarted
	// JobDone fires when the job finishes (simulated, cached, or failed).
	JobDone
)

// Event is one structured progress notification. The Queued / Running /
// Done counters are a consistent snapshot of the whole batch at the
// moment the event fired.
type Event struct {
	Kind   EventKind
	Index  int           // job position in the submitted batch
	Label  string        // Job.Label
	Cached bool          // JobDone: result came from the cache
	Err    error         // JobDone: the job's error, if any
	Wall   time.Duration // JobDone: simulation wall time
	Cycles uint64        // JobDone: cycles the simulation ran

	Queued  int // jobs not yet picked up
	Running int // jobs currently executing
	Done    int // jobs finished
}

// Events receives progress notifications. Callbacks are serialized per
// Runner (the runner never calls an Events callback concurrently with
// any other, even across overlapping Run calls) but arrive from worker
// goroutines, not the submitting one.
type Events func(Event)

// SimFunc runs one job's simulation under the given context.
type SimFunc func(ctx context.Context) (*stats.Stats, error)

// Intercept wraps the simulation of every job. It exists for
// deterministic fault injection (see internal/faultinject): the
// interceptor may run the simulation, replace it, delay it, fail it, or
// panic — the runner's recovery and timeout machinery treats whatever
// happens exactly as it would a real simulation. Each job is simulated
// once, so attempt is always 0. run simulates on the machine of the
// job's slot, so the interceptor calls it on its own goroutine and never
// after it has returned.
type Intercept func(ctx context.Context, index, attempt int, job Job, run SimFunc) (*stats.Stats, error)

// Runner executes batches of jobs. The zero value runs with GOMAXPROCS
// workers, no cache, no deadline, fail-fast semantics and no event
// callbacks.
type Runner struct {
	// Workers is the worker-pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Cache, when non-nil, is consulted before simulating and updated
	// after. Share one Cache across batches (or processes, via
	// OpenDiskCache) to never re-simulate an identical point.
	Cache *Cache
	// Events, when non-nil, receives progress notifications.
	Events Events

	// KeepGoing switches the batch from fail-fast to run-to-completion:
	// job failures no longer cancel the remaining jobs, and Run returns
	// a *BatchError aggregating every failure (ordered by submission
	// index) alongside the full results slice, in which failed jobs
	// carry their error and a nil Stats. Caller cancellation still
	// aborts the batch.
	KeepGoing bool
	// Timeout, when positive, bounds each job's wall-clock simulation
	// time: the engine runs under context.WithTimeout and the job fails
	// with context.DeadlineExceeded when the deadline passes. Zero means
	// no deadline.
	Timeout time.Duration
	// SelfCheck forces the engine's sampled invariant sweeps
	// (sim.Options.SelfCheck) on every job in the batch. Like Timeout it
	// is execution policy: the checks never change simulation results,
	// so it does not participate in cache keys.
	SelfCheck bool
	// Deprecated: ignored. Workers is the only parallelism: each
	// simulation runs on its worker's goroutine.
	Cores int
	// Intercept, when non-nil, wraps every simulation. This is the
	// deterministic fault-injection seam; production callers leave it
	// nil.
	Intercept Intercept

	// Metrics, when non-nil, enables cycle-domain sampling
	// (sim.Options.Metrics) on every simulated job in the batch, with
	// the job's Label as the series name. Jobs that set their own
	// Opts.Metrics are honored as given. Cached jobs run no simulation
	// and therefore emit no rows — run with a fresh Cache (or none) to
	// sample every point. Like SelfCheck, sampling never changes
	// simulation results and is excluded from cache keys.
	Metrics metrics.Sink
	// MetricsEvery overrides the sampling period in cycles for jobs
	// sampled via Metrics; 0 means the default (metrics.DefaultEvery).
	MetricsEvery uint64

	// emitMu serializes Events callbacks across overlapping Run calls.
	// One Run already serializes its own emissions through its local
	// batch lock; a Runner shared by concurrent callers (the job
	// server) needs this second level so a callback like JobTracer is
	// never entered concurrently.
	emitMu sync.Mutex

	// slots bounds the number of simulations in flight across every
	// concurrent Run call to the resolved Workers value. Within one Run
	// the worker pool already enforces the bound, so acquisition never
	// blocks there; with several Runs sharing the Runner it is what
	// keeps "-j" a process-wide budget instead of a per-batch one.
	// Built lazily on first use from the Workers value at that moment.
	//
	// A slot carries its machine: taking a slot takes the engine the
	// slot's last simulation ran on (nil before the first), and the
	// next simulation Resets it instead of building a GPU of its own.
	// So the runner holds at most one idle machine per slot, and none
	// larger than the largest preset (sim.Engine.Keepable).
	slotOnce sync.Once
	slots    chan *sim.Engine
}

// slotCap resolves the process-wide simulation budget.
func (r *Runner) slotCap() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// acquireSlot blocks until a simulation slot is free or ctx dies, and
// returns the slot's machine (nil when it has none yet). Slots are held
// only while a simulation actually runs — cache hits and single-flight
// waiters never consume one.
func (r *Runner) acquireSlot(ctx context.Context) (*sim.Engine, error) {
	r.slotOnce.Do(func() {
		r.slots = make(chan *sim.Engine, r.slotCap())
		for range r.slotCap() {
			r.slots <- nil
		}
	})
	select {
	case m := <-r.slots:
		return m, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// releaseSlot frees the slot and leaves m, which may be nil, in it for
// the next simulation.
func (r *Runner) releaseSlot(m *sim.Engine) { r.slots <- m }

// Run executes jobs and returns their results in submission order.
//
// Fail-fast (the default): on the first job failure the remaining
// unstarted jobs are cancelled and Run returns the failing job's error
// (results for jobs that completed before the failure are still
// populated). With KeepGoing set, every job runs and failures come back
// aggregated in a *BatchError.
//
// Cancelling ctx aborts in-flight simulations within a few thousand
// simulated cycles; the returned *CancelError summarizes how many jobs
// completed and how many never started, and wraps the context error.
//
// Run is safe for concurrent use: overlapping calls share the Runner's
// simulation-slot budget (Workers bounds in-flight simulations across
// all of them), the cache's single-flight table (an identical in-flight
// point is simulated once and shared), and the Events serialization
// guarantee.
func (r *Runner) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	return r.RunEvents(ctx, jobs, r.Events)
}

// RunEvents is Run with a per-call Events callback instead of the
// shared Runner.Events field. A server running many independent batches
// on one Runner uses it to route each batch's progress to its own
// subscriber; callbacks across overlapping calls are still serialized
// per Runner. events may be nil.
func (r *Runner) RunEvents(ctx context.Context, jobs []Job, events Events) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results, nil
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	callerCtx := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		queued   = len(jobs)
		running  int
		done     int
		firstErr error // first non-cancellation failure, by completion
	)
	emit := func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case JobStarted:
			queued--
			running++
		case JobDone:
			running--
			done++
			if ev.Err != nil && !r.KeepGoing && firstErr == nil && callerCtx.Err() == nil {
				firstErr = fmt.Errorf("runner: job %q: %w", ev.Label, ev.Err)
				cancel()
			}
		}
		if events != nil {
			ev.Queued, ev.Running, ev.Done = queued, running, done
			r.emitMu.Lock()
			events(ev)
			r.emitMu.Unlock()
		}
	}
	if events != nil {
		mu.Lock()
		r.emitMu.Lock()
		for i := range jobs {
			events(Event{Kind: JobQueued, Index: i, Label: jobs[i].Label,
				Queued: queued, Running: running, Done: done})
		}
		r.emitMu.Unlock()
		mu.Unlock()
	}

	next := make(chan int)
	go func() {
		defer close(next)
		for i := range jobs {
			// Re-check before every dispatch: a select parked on both
			// cases picks randomly once both are ready, so without this a
			// cancelled batch could keep feeding workers that happen to be
			// waiting.
			if ctx.Err() != nil {
				return
			}
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = r.runOne(ctx, i, jobs[i], emit)
			}
		}()
	}
	wg.Wait()

	// Caller cancellation trumps everything: summarize how far we got.
	if callerCtx.Err() != nil {
		mu.Lock()
		completed, notStarted := done, queued
		mu.Unlock()
		return results, &CancelError{
			Done:   completed,
			Queued: notStarted,
			Total:  len(jobs),
			Err:    callerCtx.Err(),
		}
	}

	if r.KeepGoing {
		// Aggregate failures by submission index so the multi-error is
		// identical at any worker count.
		var fails []JobFailure
		for i := range results {
			if results[i].Err != nil {
				fails = append(fails, JobFailure{Index: i, Label: jobs[i].Label, Err: results[i].Err})
			}
		}
		if len(fails) > 0 {
			return results, &BatchError{Failures: fails, Total: len(jobs)}
		}
		return results, nil
	}

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return results, err
	}
	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("runner: job %q: %w", jobs[i].Label, results[i].Err)
		}
	}
	return results, nil
}

// runOne executes (or recalls) a single job.
//
// Cacheable jobs run under single-flight: of all concurrent jobs with
// the same content address (across every Run call sharing this
// Runner's Cache), exactly one — the leader — simulates; the rest wait
// and are then served from the cache as ordinary hits. A leader that
// fails or is cancelled wakes its waiters without publishing a result;
// each waiter then retakes the flight, so one tenant disconnecting
// mid-simulation never loses another tenant's identical job.
func (r *Runner) runOne(ctx context.Context, i int, j Job, emit func(Event)) Result {
	if r.Metrics != nil && j.Opts.Metrics == nil {
		j.Opts.Metrics = &metrics.Config{Sink: r.Metrics, Every: r.MetricsEvery, Label: j.Label}
	}
	emit(Event{Kind: JobStarted, Index: i, Label: j.Label})
	cached := func(st *stats.Stats) Result {
		emit(Event{Kind: JobDone, Index: i, Label: j.Label, Cached: true, Cycles: st.Cycles})
		return Result{Job: j, Stats: st, Cached: true}
	}
	key := ""
	if r.Cache != nil {
		key = j.Key()
	}
	if key != "" {
		for {
			st, leader, wait := r.Cache.beginFlight(key)
			if st != nil {
				return cached(st)
			}
			if leader {
				break
			}
			select {
			case <-wait:
				// The leader finished (or failed); re-check the cache
				// and, on a miss, contend for the flight ourselves.
			case <-ctx.Done():
				err := ctx.Err()
				emit(Event{Kind: JobDone, Index: i, Label: j.Label, Err: err})
				return Result{Job: j, Err: err}
			}
		}
		defer r.Cache.finishFlight(key)
		// Flight leadership covers only the in-memory tier; an earlier
		// process may have persisted this point, so consult the disk
		// tier before simulating.
		if st, ok := r.Cache.Get(key); ok {
			return cached(st)
		}
	}
	// The slot gate bounds simulations in flight across overlapping Run
	// calls. Within a single Run the worker pool is never wider than
	// the budget, so this acquisition only ever blocks when several
	// batches share the Runner.
	m, err := r.acquireSlot(ctx)
	if err != nil {
		emit(Event{Kind: JobDone, Index: i, Label: j.Label, Err: err})
		return Result{Job: j, Err: err}
	}
	defer func() { r.releaseSlot(m) }()
	start := time.Now()
	var st *stats.Stats
	st, m, err = r.simulate(ctx, i, j, m)
	wall := time.Since(start)
	if err == nil && r.Cache != nil && key != "" {
		r.Cache.Put(key, st)
	}
	ev := Event{Kind: JobDone, Index: i, Label: j.Label, Err: err, Wall: wall}
	if st != nil {
		ev.Cycles = st.Cycles
	}
	emit(ev)
	return Result{Job: j, Stats: st, Err: err, Wall: wall}
}

// simulate runs the job once under Runner.Timeout on machine m (nil:
// build one), converting a panic into a *JobPanicError. The recover sits
// here — inside the worker's call into policy/engine code — so a
// panicking job surfaces as an ordinary failed Result instead of
// killing the pool. It returns the machine for the slot to keep: the
// one the job ran on, however the run ended, except after a panic,
// which may have left it half way through an update, and after a
// configuration larger than the presets (sim.Engine.Keepable) — then nil.
func (r *Runner) simulate(ctx context.Context, index int, j Job, m *sim.Engine) (st *stats.Stats, kept *sim.Engine, err error) {
	if r.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.Timeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			st, kept = nil, nil
			err = &JobPanicError{Label: j.Label, Index: index, Value: v, Stack: debug.Stack()}
		}
	}()
	opts := j.Opts
	if r.SelfCheck {
		opts.SelfCheck = true
	}
	run := func(c context.Context) (*stats.Stats, error) {
		if j.Kernel != nil && j.Stream != nil {
			return nil, fmt.Errorf("runner: job %q sets both Kernel and Stream", j.Label)
		}
		if m == nil {
			m = &sim.Engine{}
		}
		if err := m.Reset(j.Config, j.Policy, opts); err != nil {
			return nil, err
		}
		if j.Stream != nil {
			return m.RunStream(c, j.Stream)
		}
		return m.Run(c, j.Kernel)
	}
	if r.Intercept != nil {
		st, err = r.Intercept(ctx, index, 0, j, run)
	} else {
		st, err = run(ctx)
	}
	if m != nil && !m.Keepable() {
		m = nil
	}
	return st, m, err
}
