// Package serve wraps the experiment runner in a persistent,
// multi-tenant simulation job server: the "simulation as a service"
// layer in front of internal/runner.
//
// Clients POST jobs in the conformance corpus's Spec vocabulary (policy
// + sparse config overlay + workload reference — the same config.json
// bytes committed under testdata/conform/ are valid request bodies) and
// get back a job resource that can be polled, streamed (SSE / JSONL
// derived from the runner's Events stream), cancelled, and fetched as
// canonically normalized stats.
//
// The server owns one runner.Runner and one content-addressed Cache
// shared by every tenant, so the execution layer's concurrency
// guarantees become the service's scaling story: the runner's slot gate
// bounds in-flight simulations to Workers across all tenants, the
// cache's single-flight table coalesces identical in-flight jobs into
// one simulation, and the disk tier's atomic entry writes let several
// server processes share a cache directory.
//
// Admission is a fair FIFO per tenant: a dispatcher hands worker slots
// to tenants round-robin, so one tenant flooding its queue delays only
// itself — another tenant's first job runs as soon as a slot frees. The
// per-tenant queue is bounded; submissions beyond the bound are
// rejected with 429 and a Retry-After hint rather than queued without
// limit (backpressure, not collapse).
//
// Cancellation is first-class: every job runs under its own context
// (derived from the server's), a synchronous submitter disconnecting
// cancels its job mid-flight (surfacing as the runner's *CancelError),
// DELETE cancels by id, and shutdown drains — admission stops, queued
// and running jobs finish (or are cancelled at the drain deadline), and
// only then does Done() fire.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/conform"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Config tunes a Server. The zero value serves with GOMAXPROCS workers,
// serial simulations, an in-memory cache, a 64-deep per-tenant queue
// and no per-job deadline.
type Config struct {
	// Workers bounds simulations in flight across all tenants (the
	// runner's -j); <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Cores is the per-simulation phase-parallelism cap. A job asking
	// for more (via its spec's cores list) is clamped; results are
	// bit-identical at any value, so clamping is invisible in output.
	// <= 0 means 1: with Workers saturating the host, extra shards per
	// simulation would only thrash the phase barriers.
	Cores int
	// QueueDepth bounds each tenant's pending-job FIFO; submissions
	// beyond it get 429. <= 0 means 64.
	QueueDepth int
	// Cache is the shared result cache; nil means a fresh in-memory
	// cache. Point it at runner.OpenDiskCache to persist results across
	// restarts and share them between server processes.
	Cache *runner.Cache
	// Timeout is the per-job wall-clock budget (runner.Runner.Timeout);
	// 0 means none.
	Timeout time.Duration
	// DrainTimeout bounds graceful shutdown: jobs still queued or
	// running past it are cancelled. <= 0 means 30s.
	DrainTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses; <= 0 means 1s.
	RetryAfter time.Duration
	// History bounds how many finished job records are kept for
	// GET /jobs/{id}; the oldest are evicted beyond it. <= 0 means 1024.
	History int
	// SelfCheck enables the engine's sampled invariant sweeps on every
	// job (execution policy — results are unchanged).
	SelfCheck bool
	// Retries is the runner's transient-retry budget per job.
	Retries int
	// Intercept, when non-nil, wraps every simulation attempt — the
	// fault-injection seam, passed through to the runner.
	Intercept runner.Intercept
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

func (c Config) drainTimeout() time.Duration {
	if c.DrainTimeout > 0 {
		return c.DrainTimeout
	}
	return 30 * time.Second
}

func (c Config) retryAfter() time.Duration {
	if c.RetryAfter > 0 {
		return c.RetryAfter
	}
	return time.Second
}

func (c Config) history() int {
	if c.History > 0 {
		return c.History
	}
	return 1024
}

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// JobEvent is one entry of a job's progress log, streamed over SSE /
// JSONL. Kinds: "queued", "started" (a runner worker picked the job
// up), and one terminal "done" / "failed" / "cancelled".
type JobEvent struct {
	Seq    int        `json:"seq"`
	Kind   string     `json:"kind"`
	TMS    int64      `json:"t_ms"` // milliseconds since submission
	Cached bool       `json:"cached,omitempty"`
	Cycles uint64     `json:"cycles,omitempty"`
	Error  *ErrorInfo `json:"error,omitempty"`
}

// ErrorInfo is the typed-error surface of the HTTP API: a stable
// machine-readable type plus the human-readable chain.
type ErrorInfo struct {
	Type    string `json:"type"`
	Message string `json:"message"`
}

// jobState is one submitted job. Its mutex guards the mutable fields;
// the server's mutex guards queue membership. Lock ordering: server
// lock before job lock, never the reverse.
type jobState struct {
	id        string
	tenant    string
	label     string
	key       string // content address ("" = uncacheable)
	rjob      runner.Job
	submitted time.Time

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	status   Status
	events   []JobEvent
	change   chan struct{} // closed and replaced on every append
	stats    []byte        // canonically normalized stats (done only)
	err      error
	cached   bool
	wall     time.Duration
	attempts int
	cycles   uint64
	waiters  int  // attached synchronous submitters
	syncOwn  bool // cancel when the last waiter detaches pre-completion
	done     chan struct{}
}

func (j *jobState) appendEvent(kind string, mut func(*JobEvent)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEventLocked(kind, mut)
}

func (j *jobState) appendEventLocked(kind string, mut func(*JobEvent)) {
	ev := JobEvent{
		Seq:  len(j.events),
		Kind: kind,
		TMS:  time.Since(j.submitted).Milliseconds(),
	}
	if mut != nil {
		mut(&ev)
	}
	j.events = append(j.events, ev)
	close(j.change)
	j.change = make(chan struct{})
}

// finishLocked moves the job to a terminal state exactly once.
func (j *jobState) finishLocked(st Status, kind string, mut func(*JobEvent)) {
	if j.status.Terminal() {
		return
	}
	j.status = st
	j.appendEventLocked(kind, mut)
	close(j.done)
}

func (j *jobState) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.Terminal()
}

// attach registers a synchronous waiter; detach deregisters it and, if
// it was the last one on a sync-owned, still-unfinished job, cancels
// the job — the "client disconnected mid-flight" path.
func (j *jobState) attach() {
	j.mu.Lock()
	j.waiters++
	j.mu.Unlock()
}

func (j *jobState) detach() {
	j.mu.Lock()
	j.waiters--
	abandon := j.syncOwn && j.waiters == 0 && !j.status.Terminal()
	j.mu.Unlock()
	if abandon {
		j.cancel()
	}
}

// Server is the simulation job server. Create with NewServer; serve its
// Handler; stop with Shutdown (graceful) or Close (immediate).
type Server struct {
	cfg    Config
	runner *runner.Runner
	cache  *runner.Cache
	start  time.Time

	ctx  context.Context // server lifetime; parent of every job context
	stop context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*jobState
	queues   map[string][]*jobState
	ring     []string // tenant round-robin order (first-submission order)
	rr       int
	queued   int
	running  int
	draining bool
	seq      int64
	history  []string // finished job ids, oldest first

	submitted, completed, failed, cancelled, rejected, deduped int64

	wg       sync.WaitGroup
	done     chan struct{} // closed when shutdown drain completes
	shutOnce sync.Once
}

// NewServer builds the server and starts its worker pool.
func NewServer(cfg Config) *Server {
	cache := cfg.Cache
	if cache == nil {
		cache = runner.NewCache()
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:   cfg,
		cache: cache,
		runner: &runner.Runner{
			Workers:   cfg.workers(),
			Cache:     cache,
			Timeout:   cfg.Timeout,
			SelfCheck: cfg.SelfCheck,
			Retries:   cfg.Retries,
			Intercept: cfg.Intercept,
		},
		start:  time.Now(),
		ctx:    ctx,
		stop:   stop,
		jobs:   make(map[string]*jobState),
		queues: make(map[string][]*jobState),
		done:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.workers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Cache exposes the shared result cache (for wiring into a tracer or
// reading counters).
func (s *Server) Cache() *runner.Cache { return s.cache }

// Done fires once a graceful shutdown (POST /shutdown or Shutdown) has
// fully drained; a main loop selects on it to exit.
func (s *Server) Done() <-chan struct{} { return s.done }

// submit validates and enqueues one job. It returns the job, or a
// submitError carrying the HTTP status to respond with.
func (s *Server) submit(sp *conform.Spec, tenant string, syncOwn bool) (*jobState, *submitError) {
	cfg, pol, kernel, err := sp.Build()
	if err != nil {
		return nil, &submitError{status: 400, info: ErrorInfo{Type: "spec", Message: err.Error()}}
	}
	cores := 1
	if len(sp.Cores) > 0 {
		cores = sp.Cores[0]
	}
	if maxCores := s.cfg.Cores; maxCores >= 1 && cores > maxCores {
		// Identical results at any core count; only the schedule changes.
		cores = maxCores
	}
	if tenant == "" {
		tenant = "default"
	}
	rjob := runner.Job{
		Config: cfg,
		Policy: pol,
		Kernel: kernel,
		Opts:   sim.Options{MaxCycles: sp.MaxCycles, Cores: cores},
	}
	// Hashed before the lock: the key walks the kernel on its first use
	// and formats the whole configuration on every one, and next(), DELETE
	// and /stats must not queue behind that. The label is not part of it.
	key := jobKey(rjob)

	s.mu.Lock()
	if s.draining || s.ctx.Err() != nil {
		s.mu.Unlock()
		return nil, &submitError{status: 503, info: ErrorInfo{Type: "draining", Message: "server is shutting down"}}
	}
	if len(s.queues[tenant]) >= s.cfg.queueDepth() {
		s.rejected++
		s.mu.Unlock()
		return nil, &submitError{
			status:     429,
			retryAfter: s.cfg.retryAfter(),
			info: ErrorInfo{Type: "backpressure",
				Message: fmt.Sprintf("tenant %q queue is full (%d pending)", tenant, s.cfg.queueDepth())},
		}
	}
	s.seq++
	id := fmt.Sprintf("j%d", s.seq)
	ctx, cancel := context.WithCancel(s.ctx)
	js := &jobState{
		id:        id,
		tenant:    tenant,
		label:     fmt.Sprintf("%s %s %s", id, tenant, describe(sp)),
		submitted: time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		status:    StatusQueued,
		change:    make(chan struct{}),
		done:      make(chan struct{}),
		syncOwn:   syncOwn,
	}
	rjob.Label = js.label
	js.rjob = rjob
	js.key = key
	s.jobs[id] = js
	if _, seen := s.queues[tenant]; !seen {
		s.ring = append(s.ring, tenant)
	}
	s.queues[tenant] = append(s.queues[tenant], js)
	s.queued++
	s.submitted++
	s.cond.Broadcast()
	s.mu.Unlock()

	js.appendEvent("queued", nil)
	return js, nil
}

// jobKey is runner.Job.Key; a variable so a test can hold a submit inside
// it.
var jobKey = runner.Job.Key

// describe renders a spec's workload + policy for job labels.
func describe(sp *conform.Spec) string {
	switch {
	case sp.Workload.App != "":
		return fmt.Sprintf("%s under %s", sp.Workload.App, sp.Policy)
	case sp.Workload.Synth != nil:
		return fmt.Sprintf("synth(seed=%d) under %s", sp.Workload.Synth.Seed, sp.Policy)
	default:
		return string(sp.Policy)
	}
}

type submitError struct {
	status     int
	retryAfter time.Duration
	info       ErrorInfo
}

// worker is one dispatch loop: claim the next job fairly, execute it,
// repeat until shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		js := s.next()
		if js == nil {
			return
		}
		s.execute(js)
	}
}

// next pops the next runnable job, round-robin across tenants, FIFO
// within one. It blocks while the queues are empty and returns nil once
// the server is draining (and empty) or stopped.
func (s *Server) next() *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.ctx.Err() != nil {
			return nil
		}
		for n := 0; n < len(s.ring); n++ {
			idx := (s.rr + n) % len(s.ring)
			tenant := s.ring[idx]
			for len(s.queues[tenant]) > 0 {
				js := s.queues[tenant][0]
				s.queues[tenant] = s.queues[tenant][1:]
				s.queued--
				if js.terminal() {
					continue // cancelled while queued
				}
				s.rr = (idx + 1) % len(s.ring)
				s.running++
				return js
			}
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// execute runs one claimed job through the shared runner and records
// its outcome.
func (s *Server) execute(js *jobState) {
	results, err := s.runner.RunEvents(js.ctx, []runner.Job{js.rjob}, func(ev runner.Event) {
		if ev.Kind == runner.JobStarted {
			js.mu.Lock()
			if !js.status.Terminal() {
				js.status = StatusRunning
				js.appendEventLocked("started", nil)
			}
			js.mu.Unlock()
		}
	})
	s.finalize(js, results, err)

	s.mu.Lock()
	s.running--
	s.cond.Broadcast() // wakes the drain waiter
	s.mu.Unlock()
}

// finalize records a terminal state from the runner's verdict.
func (s *Server) finalize(js *jobState, results []runner.Result, err error) {
	outcome := StatusDone
	var info *ErrorInfo
	var norm []byte

	var res runner.Result
	if len(results) == 1 {
		res = results[0]
	}
	if err == nil {
		if norm, err = conform.Normalize(res.Stats); err != nil {
			err = fmt.Errorf("normalizing stats: %w", err)
		}
	}
	if err != nil {
		info = classify(err)
		if info.Type == "cancelled" {
			outcome = StatusCancelled
		} else {
			outcome = StatusFailed
		}
	}

	js.mu.Lock()
	transitioned := !js.status.Terminal()
	if transitioned {
		js.err = err
		js.stats = norm
		js.cached = res.Cached
		js.wall = res.Wall
		js.attempts = res.Attempts
		if res.Stats != nil {
			js.cycles = res.Stats.Cycles
		}
		kind := map[Status]string{StatusDone: "done", StatusFailed: "failed", StatusCancelled: "cancelled"}[outcome]
		js.finishLocked(outcome, kind, func(ev *JobEvent) {
			ev.Cached = res.Cached
			ev.Cycles = js.cycles
			ev.Error = info
		})
	}
	js.mu.Unlock()
	if !transitioned {
		return // cancelled while queued: already counted and retired
	}

	s.mu.Lock()
	switch outcome {
	case StatusDone:
		s.completed++
		if res.Cached {
			s.deduped++
		}
	case StatusFailed:
		s.failed++
	case StatusCancelled:
		s.cancelled++
	}
	s.retireLocked(js.id)
	s.mu.Unlock()
}

// retireLocked records a finished job in the bounded history, evicting
// the oldest finished records beyond the bound so a long-running server
// does not accumulate every job it ever ran.
func (s *Server) retireLocked(id string) {
	s.history = append(s.history, id)
	for len(s.history) > s.cfg.history() {
		evict := s.history[0]
		s.history = s.history[1:]
		delete(s.jobs, evict)
	}
}

// cancelJob cancels a job by id: a queued job is finalized immediately,
// a running one is interrupted through its context and finalized by its
// worker.
func (s *Server) cancelJob(js *jobState) {
	js.cancel()
	js.mu.Lock()
	wasQueued := js.status == StatusQueued
	if wasQueued {
		js.finishLocked(StatusCancelled, "cancelled", nil)
	}
	js.mu.Unlock()
	if wasQueued {
		s.mu.Lock()
		s.cancelled++
		s.retireLocked(js.id)
		s.mu.Unlock()
	}
}

// Shutdown drains the server: admission stops immediately, queued and
// running jobs get until the configured DrainTimeout (bounded further
// by ctx) to finish, then stragglers are cancelled. It is idempotent;
// Done() closes once the first call completes.
func (s *Server) Shutdown(ctx context.Context) {
	s.shutOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		s.cond.Broadcast()
		s.mu.Unlock()

		deadline := time.AfterFunc(s.cfg.drainTimeout(), s.abort)
		defer deadline.Stop()
		var stopOnCtx func() // cancels the ctx watcher
		if ctx != nil {
			watch, cancel := context.WithCancel(ctx)
			stopOnCtx = cancel
			go func() {
				<-watch.Done()
				if ctx.Err() != nil {
					s.abort()
				}
			}()
		}

		// Drain: still-queued jobs keep being claimed by the workers
		// while draining; the abort paths above cancel every remaining
		// job (running work collapses into *CancelError within a few
		// thousand simulated cycles), so this wait always terminates.
		s.mu.Lock()
		for s.queued > 0 || s.running > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		s.stop() // workers parked in next() observe ctx.Err and exit
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
		s.wg.Wait()
		s.releaseKernels()
		if stopOnCtx != nil {
			stopOnCtx()
		}
		close(s.done)
	})
	<-s.done
}

// releaseKernels drops what the recorded jobs needed only to run. The
// workers have exited, so nothing reads a job's runner.Job again; its
// status, events and stats stay readable. Without this, whatever keeps a
// stopped server reachable a moment longer — a connection goroutine of
// the http.Server that has yet to notice the close — pins every kernel
// in the job history, and whether a collection right after the stop
// frees them is a race.
func (s *Server) releaseKernels() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, js := range s.jobs {
		js.rjob = runner.Job{}
	}
}

// abort hard-stops execution: the server context dies (cancelling every
// running job) and every still-queued job is flushed and finalized as
// cancelled so the drain accounting reaches zero.
func (s *Server) abort() {
	s.stop()
	s.mu.Lock()
	var stranded []*jobState
	for tenant, q := range s.queues {
		stranded = append(stranded, q...)
		s.queues[tenant] = nil
	}
	s.queued = 0
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, js := range stranded {
		js.cancel()
		js.mu.Lock()
		transitioned := !js.status.Terminal()
		if transitioned {
			js.finishLocked(StatusCancelled, "cancelled", nil)
		}
		js.mu.Unlock()
		if transitioned {
			s.mu.Lock()
			s.cancelled++
			s.retireLocked(js.id)
			s.mu.Unlock()
		}
	}
}

// Close shuts down immediately: every job is cancelled and the drain
// completes as soon as the workers observe it.
func (s *Server) Close() {
	s.abort()
	s.Shutdown(nil)
}

// classify maps an execution error to the API's stable error types:
// "panic" (recovered worker panic), "deadline" (per-job wall budget
// exceeded — the partial-failure outcome), "cancelled" (client
// disconnect, DELETE, or server shutdown), "spec" (the request never
// became a runnable point), "sim" (everything else: launch errors,
// invariant violations, engine failures).
func classify(err error) *ErrorInfo {
	info := &ErrorInfo{Type: "sim", Message: err.Error()}
	var jp *runner.JobPanicError
	var ce *runner.CancelError
	switch {
	case errors.As(err, &jp):
		info.Type = "panic"
	case errors.Is(err, context.DeadlineExceeded):
		info.Type = "deadline"
	case errors.As(err, &ce) && errors.Is(ce.Err, context.DeadlineExceeded):
		info.Type = "deadline"
	case errors.Is(err, context.Canceled):
		info.Type = "cancelled"
	}
	return info
}
