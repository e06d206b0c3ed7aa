// Package serve wraps the experiment runner in a persistent,
// multi-tenant simulation job server: the "simulation as a service"
// layer in front of internal/runner.
//
// Clients POST jobs in the conformance corpus's Spec vocabulary (policy
// + sparse config overlay + workload reference — the same config.json
// bytes committed under testdata/conform/ are valid request bodies) and
// get back a job resource that can be polled, streamed (JSON lines
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
// A repeat is a lookup: a bounded, least-recently-used table maps the
// SHA-256 of a POST /jobs body to the answer a done job settled with, and
// a submission whose digest is in it is settled inside submit — a real
// job with an id, events and counters, but no build, no key, no queue
// slot and no simulation.
//
// Cancellation is first-class: every job runs under its own context
// (derived from the server's), a synchronous submitter disconnecting
// cancels its job mid-flight (surfacing as the runner's *CancelError),
// DELETE cancels by id, and shutdown drains — admission stops, queued
// and running jobs finish (or are cancelled at the drain deadline), and
// only then does Shutdown return. The process that owns the server
// drains it on SIGINT or SIGTERM; no HTTP route stops it.
package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
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
// an in-memory cache, a 64-deep per-tenant queue and no per-job
// deadline.
type Config struct {
	// Workers bounds simulations in flight across all tenants (the
	// runner's -j); <= 0 means runtime.GOMAXPROCS(0).
	Workers int
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
	// SelfCheck enables the engine's sampled invariant sweeps on every
	// job (execution policy — results are unchanged).
	SelfCheck bool
	// Intercept, when non-nil, wraps every simulation — the
	// fault-injection seam, passed through to the runner.
	Intercept runner.Intercept
}

// retryAfter is the hint returned with 429 responses.
const retryAfter = time.Second

// historyLimit bounds how many finished job records are kept for
// GET /jobs/{id}; the oldest are evicted beyond it.
const historyLimit = 1024

// answersLimit bounds the answer table. A normalized answer is about
// 400 bytes, so a full table holds about 2 MB.
const answersLimit = 4096

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

// JobEvent is one entry of a job's progress log, streamed as one JSON
// line. Kinds: "queued", "started" (a runner worker picked the job
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
	digest    [sha256.Size]byte // of the request body: the answer table's key
	rjob      runner.Job
	submitted time.Time

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	status  Status
	events  []JobEvent
	change  chan struct{} // closed and replaced on every append
	stats   []byte        // canonically normalized stats (done only)
	err     error
	cached  bool
	wall    time.Duration
	cycles  uint64
	waiters int  // attached synchronous submitters
	syncOwn bool // cancel when the last waiter detaches pre-completion
	done    chan struct{}
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

// finishLocked moves the job to a terminal state exactly once, and
// lets go of its kernel: a settled job never runs again, and its view,
// events and stats do not need it, so the job history pins no kernel.
func (j *jobState) finishLocked(st Status, kind string, mut func(*JobEvent)) {
	if j.status.Terminal() {
		return
	}
	j.rjob.Kernel = nil
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
	queues   map[string][]*jobState // pending jobs of every tenant that has any
	ring     []string               // round-robin order of the tenants in queues
	rr       int                    // ring index of the tenant whose turn is next
	queued   int
	running  int
	draining bool
	seq      int64
	history  []string // finished job ids, oldest first
	answers  answerTable

	submitted, completed, failed, cancelled, rejected int64
	answered                                          int64 // settled from the answer table

	wg       sync.WaitGroup
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
			Intercept: cfg.Intercept,
		},
		start:   time.Now(),
		ctx:     ctx,
		stop:    stop,
		jobs:    make(map[string]*jobState),
		queues:  make(map[string][]*jobState),
		answers: answerTable{byDigest: make(map[[sha256.Size]byte]*list.Element), order: list.New()},
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

// submit settles one request body from the answer table, or validates
// and enqueues it. It returns the job, or a submitError carrying the HTTP
// status to respond with.
//
// The body alone decides the answer: it is a self-contained Spec that
// names no server-side state, so decode, build, key and result are a
// pure function of its bytes. The tenant and the wait mode are not part
// of it. A byte-different spelling of one spec misses the table and is
// still deduplicated by the runner's content-addressed cache.
func (s *Server) submit(body []byte, tenant string, syncOwn bool) (*jobState, *submitError) {
	if tenant == "" {
		tenant = "default"
	}
	digest := sha256.Sum256(body)

	s.mu.Lock()
	if serr := s.refuseLocked(); serr != nil {
		s.mu.Unlock()
		return nil, serr
	}
	if a, ok := s.answers.get(digest); ok {
		js := s.answerLocked(a, tenant)
		s.mu.Unlock()
		return js, nil
	}
	s.mu.Unlock()

	// Built before the lock: the kernel generation and the checks take
	// tens of microseconds, and next(), DELETE and /stats must not queue
	// behind them.
	sp, err := conform.UnmarshalSpec(body)
	if err != nil {
		return nil, &submitError{status: 400, info: ErrorInfo{Type: "spec", Message: err.Error()}}
	}
	if scale := sp.Workload.Scale; scale > maxScale {
		return nil, &submitError{status: 422, info: ErrorInfo{Type: "cost",
			Message: fmt.Sprintf("workload scale %d is above the served ceiling of %d", scale, maxScale)}}
	}
	cfg, pol, kernel, err := buildSpec(sp)
	if err != nil {
		return nil, &submitError{status: 400, info: ErrorInfo{Type: "spec", Message: err.Error()}}
	}

	s.mu.Lock()
	if serr := s.refuseLocked(); serr != nil {
		s.mu.Unlock()
		return nil, serr
	}
	if len(s.queues[tenant]) >= s.cfg.queueDepth() {
		s.rejected++
		s.mu.Unlock()
		return nil, &submitError{
			status: 429,
			info: ErrorInfo{Type: "backpressure",
				Message: fmt.Sprintf("tenant %q queue is full (%d pending)", tenant, s.cfg.queueDepth())},
		}
	}
	js := s.newJobLocked(tenant)
	js.ctx, js.cancel = context.WithCancel(s.ctx)
	js.syncOwn = syncOwn
	js.digest = digest
	js.rjob = runner.Job{
		Label:  fmt.Sprintf("%s %s %s", js.id, tenant, describe(sp)),
		Config: cfg,
		Policy: pol,
		Kernel: kernel,
		Opts:   sim.Options{MaxCycles: sp.MaxCycles},
	}
	if _, active := s.queues[tenant]; !active {
		s.ring = append(s.ring, tenant)
	}
	s.queues[tenant] = append(s.queues[tenant], js)
	s.queued++
	s.cond.Broadcast()
	s.mu.Unlock()

	js.appendEvent("queued", nil)
	return js, nil
}

// maxScale is the largest workload scale a submission may ask for. A
// job's kernel is built eagerly inside POST /jobs, and its size grows
// with the scale: a packed MM kernel is already 273 MB at scale 1. 8 is
// the largest scale the conformance fuzzer draws, so every reproducer
// it writes stays servable.
const maxScale = 8

// buildSpec is conform.Spec.Build; a variable so a test can hold a submit
// inside it, or count the builds.
var buildSpec = (*conform.Spec).Build

// refuseLocked is the 503 every submission gets while the server drains.
func (s *Server) refuseLocked() *submitError {
	if s.draining || s.ctx.Err() != nil {
		return &submitError{status: 503, info: ErrorInfo{Type: "draining", Message: "server is shutting down"}}
	}
	return nil
}

// newJobLocked registers a queued job under the next id.
func (s *Server) newJobLocked(tenant string) *jobState {
	s.seq++
	s.submitted++
	js := &jobState{
		id:        fmt.Sprintf("j%d", s.seq),
		tenant:    tenant,
		submitted: time.Now(),
		status:    StatusQueued,
		change:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	s.jobs[js.id] = js
	return js
}

// answerLocked settles a submission from a remembered answer. The job
// never queues, so it takes no slot and is never refused with 429, and
// its log is "queued" then "done": nothing ran, so nothing "started". It
// carries no kernel.
func (s *Server) answerLocked(a *answer, tenant string) *jobState {
	js := s.newJobLocked(tenant)
	js.cancel = func() {} // nothing runs, so there is nothing to interrupt
	js.mu.Lock()
	js.appendEventLocked("queued", nil)
	js.stats, js.cached, js.cycles = a.stats, true, a.cycles
	js.finishLocked(StatusDone, "done", func(ev *JobEvent) {
		ev.Cached = true
		ev.Cycles = a.cycles
	})
	js.mu.Unlock()
	s.completed++
	s.answered++
	s.retireLocked(js.id)
	return js
}

// answer is what a done job settled with. Its stats are shared by every
// job answered from it, so nothing may mutate them.
type answer struct {
	digest [sha256.Size]byte
	stats  []byte
	cycles uint64
}

// answerTable maps request-body digests to answers, least recently used
// first out beyond answersLimit. The server lock guards it.
type answerTable struct {
	byDigest map[[sha256.Size]byte]*list.Element // of *answer
	order    *list.List                          // most recently used at the front
}

func (t *answerTable) get(digest [sha256.Size]byte) (*answer, bool) {
	e, ok := t.byDigest[digest]
	if !ok {
		return nil, false
	}
	t.order.MoveToFront(e)
	return e.Value.(*answer), true
}

func (t *answerTable) put(a *answer) {
	if e, ok := t.byDigest[a.digest]; ok {
		// Two submissions of one body missed together; their answers are
		// the same bytes.
		t.order.MoveToFront(e)
		return
	}
	t.byDigest[a.digest] = t.order.PushFront(a)
	if t.order.Len() > answersLimit {
		oldest := t.order.Remove(t.order.Back()).(*answer)
		delete(t.byDigest, oldest.digest)
	}
}

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
	status int
	info   ErrorInfo
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
// within one. A tenant whose queue empties is forgotten — dropped from
// both queues and ring — so the server's memory and this scan grow with
// the tenants that have work pending, not with every tenant ever seen.
// It blocks while the queues are empty and returns nil once the server
// is draining (and empty) or stopped.
func (s *Server) next() *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.ctx.Err() != nil {
			return nil
		}
		for len(s.ring) > 0 {
			if s.rr >= len(s.ring) {
				s.rr = 0
			}
			tenant := s.ring[s.rr]
			q := s.queues[tenant]
			js := q[0]
			s.queued--
			more := len(q) > 1
			if more {
				s.queues[tenant] = q[1:]
			} else {
				// The tenant after this one slides into its ring index and
				// so holds the next turn.
				delete(s.queues, tenant)
				s.ring = append(s.ring[:s.rr], s.ring[s.rr+1:]...)
			}
			if js.terminal() {
				continue // cancelled while queued; the turn is not used up
			}
			if more {
				s.rr++
			}
			s.running++
			return js
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// execute runs one claimed job through the shared runner and records
// its outcome. A job cancelled between its claim and here is already
// settled, counted and without its kernel: there is nothing to run.
func (s *Server) execute(js *jobState) {
	defer func() {
		s.mu.Lock()
		s.running--
		s.cond.Broadcast() // wakes the drain waiter
		s.mu.Unlock()
	}()
	js.mu.Lock()
	job, settled := js.rjob, js.status.Terminal()
	js.mu.Unlock()
	if settled {
		return
	}
	results, err := s.runner.RunEvents(js.ctx, []runner.Job{job}, func(ev runner.Event) {
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
	js.cancel() // releases the job's context from the server's
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

	var cycles uint64
	if res.Stats != nil {
		cycles = res.Stats.Cycles
	}
	// The server lock is held across the transition, so no one who sees
	// the job settled — a ?wait=1 client woken by its done channel — can
	// read /stats before the outcome is counted.
	s.mu.Lock()
	defer s.mu.Unlock()
	js.mu.Lock()
	transitioned := !js.status.Terminal()
	if transitioned {
		js.err = err
		js.stats = norm
		js.cached = res.Cached
		js.wall = res.Wall
		js.cycles = cycles
		kind := map[Status]string{StatusDone: "done", StatusFailed: "failed", StatusCancelled: "cancelled"}[outcome]
		js.finishLocked(outcome, kind, func(ev *JobEvent) {
			ev.Cached = res.Cached
			ev.Cycles = cycles
			ev.Error = info
		})
	}
	js.mu.Unlock()
	if !transitioned {
		return // cancelled while queued: already counted and retired
	}

	switch outcome {
	case StatusDone:
		s.completed++
		// Only a done job is remembered: a failed, timed-out or cancelled
		// one says nothing about what the body would settle with.
		s.answers.put(&answer{digest: js.digest, stats: norm, cycles: cycles})
	case StatusFailed:
		s.failed++
	case StatusCancelled:
		s.cancelled++
	}
	s.retireLocked(js.id)
}

// retireLocked records a finished job in the bounded history, evicting
// the oldest finished records beyond the bound so a long-running server
// does not accumulate every job it ever ran.
func (s *Server) retireLocked(id string) {
	s.history = append(s.history, id)
	for len(s.history) > historyLimit {
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
// by ctx) to finish, then stragglers are cancelled. It is idempotent:
// every call returns once the first call's drain has completed.
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
		if stopOnCtx != nil {
			stopOnCtx()
		}
	})
}

// abort hard-stops execution: the server context dies (cancelling every
// running job) and every still-queued job is flushed and finalized as
// cancelled so the drain accounting reaches zero.
func (s *Server) abort() {
	s.stop()
	s.mu.Lock()
	var stranded []*jobState
	for _, q := range s.queues {
		stranded = append(stranded, q...)
	}
	s.queues = make(map[string][]*jobState)
	s.ring, s.rr = nil, 0
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
