package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// maxBodyBytes bounds a job submission body; corpus specs are a few KB,
// fuzzer-grade full-config reproducers tens of KB.
const maxBodyBytes = 1 << 20

// JobView is the job resource rendered by the HTTP API. Stats carries
// the canonically normalized counters (the same bytes as a conformance
// case's expected_stats.json) once the job is done.
type JobView struct {
	ID     string          `json:"id"`
	Tenant string          `json:"tenant"`
	Status Status          `json:"status"`
	Cached bool            `json:"cached,omitempty"`
	Cycles uint64          `json:"cycles,omitempty"`
	WallMS int64           `json:"wall_ms,omitempty"`
	Error  *ErrorInfo      `json:"error,omitempty"`
	Stats  json.RawMessage `json:"stats,omitempty"`
}

// view snapshots the job as its API resource. includeStats controls
// whether the (potentially large) normalized counters ride along.
func (j *jobState) view(includeStats bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:     j.id,
		Tenant: j.tenant,
		Status: j.status,
		Cached: j.cached,
		Cycles: j.cycles,
		WallMS: j.wall.Milliseconds(),
	}
	if j.err != nil {
		v.Error = classify(j.err)
	}
	if includeStats && j.status == StatusDone {
		v.Stats = json.RawMessage(j.stats)
	}
	return v
}

// StatsView is the GET /stats payload.
type StatsView struct {
	UptimeMS  int64          `json:"uptime_ms"`
	Draining  bool           `json:"draining"`
	Workers   int            `json:"workers"`
	Submitted int64          `json:"submitted"`
	Completed int64          `json:"completed"`
	Failed    int64          `json:"failed"`
	Cancelled int64          `json:"cancelled"`
	Rejected  int64          `json:"rejected"`
	Running   int            `json:"running"`
	Queued    int            `json:"queued"`
	Tenants   map[string]int `json:"tenants,omitempty"` // pending per tenant
	Cache     CacheView      `json:"cache"`
}

// CacheView is the shared result cache's counter block inside /stats.
type CacheView struct {
	Entries     int    `json:"entries"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Coalesced   uint64 `json:"coalesced"`
	Quarantined uint64 `json:"quarantined"`
}

// Handler returns the server's HTTP API:
//
//	POST   /jobs          submit (body: conform Spec JSON; X-Tenant
//	                      header names the tenant; ?wait=1 blocks for
//	                      the result — disconnecting cancels the job;
//	                      a body that settled done before is answered
//	                      at once, cached; a workload scale above
//	                      maxScale or a max_cycles above
//	                      maxServedCycles is a 422 "cost" error,
//	                      refused before its kernel is built)
//	GET    /jobs/{id}         job status (+stats when done)
//	GET    /jobs/{id}/stats   normalized stats, verbatim corpus bytes
//	GET    /jobs/{id}/events  progress stream (JSON lines)
//	DELETE /jobs/{id}         cancel
//	GET    /stats             server + cache counters
//	GET    /healthz           liveness (503 while draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/stats", s.handleJobStats)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, info ErrorInfo) {
	writeJSON(w, status, struct {
		Error ErrorInfo `json:"error"`
	}{info})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrorInfo{Type: "spec", Message: fmt.Sprintf("reading body: %v", err)})
		return
	}
	wait := r.URL.Query().Get("wait") == "1"
	js, serr := s.submit(body, r.Header.Get("X-Tenant"), wait)
	if serr != nil {
		if serr.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
		}
		writeError(w, serr.status, serr.info)
		return
	}
	if !wait {
		writeJSON(w, http.StatusAccepted, js.view(false))
		return
	}

	// Synchronous mode: hold the connection open until the job settles.
	// An abandoned connection is a cancellation — the single-flight
	// table makes this safe for other tenants sharing the same content
	// address (a waiter retakes the flight).
	js.attach()
	defer js.detach()
	select {
	case <-js.done:
		writeJSON(w, waitStatusCode(js), js.view(true))
	case <-r.Context().Done():
		// Client gone; detach (deferred) cancels the job.
	}
}

// waitStatusCode maps a settled job to the synchronous submit's HTTP
// status: 200 done, 504 deadline (the partial-failure outcome), 500
// other failures, 409 cancelled from elsewhere while we waited.
func waitStatusCode(js *jobState) int {
	js.mu.Lock()
	defer js.mu.Unlock()
	switch js.status {
	case StatusDone:
		return http.StatusOK
	case StatusCancelled:
		return http.StatusConflict
	default:
		if js.err != nil && classify(js.err).Type == "deadline" {
			return http.StatusGatewayTimeout
		}
		return http.StatusInternalServerError
	}
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *jobState {
	s.mu.Lock()
	js := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if js == nil {
		writeError(w, http.StatusNotFound, ErrorInfo{Type: "unknown-job", Message: fmt.Sprintf("no job %q", r.PathValue("id"))})
	}
	return js
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if js := s.lookup(w, r); js != nil {
		writeJSON(w, http.StatusOK, js.view(true))
	}
}

// handleJobStats serves the done job's normalized stats verbatim: the
// exact bytes a conformance case commits as expected_stats.json, so
// `cmp` against the corpus is a meaningful end-to-end check.
func (s *Server) handleJobStats(w http.ResponseWriter, r *http.Request) {
	js := s.lookup(w, r)
	if js == nil {
		return
	}
	js.mu.Lock()
	status, stats := js.status, js.stats
	js.mu.Unlock()
	if status != StatusDone {
		writeError(w, http.StatusConflict, ErrorInfo{Type: "not-done", Message: fmt.Sprintf("job %s is %s", js.id, status)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(stats)
}

// handleJobEvents streams the job's progress log as JSON lines, one
// event per line. The stream replays history first, then follows live
// until the terminal event, so a subscriber attaching at any point sees
// the full lifecycle.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	js := s.lookup(w, r)
	if js == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)

	next := 0
	for {
		js.mu.Lock()
		evs := js.events[next:]
		next = len(js.events)
		change := js.change
		terminal := js.status.Terminal()
		js.mu.Unlock()

		for _, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "%s\n", b)
		}
		if len(evs) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal && next > 0 {
			return
		}
		select {
		case <-change:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	js := s.lookup(w, r)
	if js == nil {
		return
	}
	s.cancelJob(js)
	// A running job settles through its worker; report the resource as
	// it stands once the cancellation has fully landed. The wait is
	// bounded in host time: the engine parks at a checkpoint every 4096
	// simulated cycles at most and looks at its context when it wakes —
	// well under a millisecond apart on a machine that is mostly waiting,
	// tens of milliseconds on one issuing flat out — and that park is
	// also what let this handler run at all with every P simulating
	// (sim.Engine.checkpoint; TestDeleteLatencyUnderLoadedWorkers).
	select {
	case <-js.done:
	case <-r.Context().Done():
	}
	writeJSON(w, http.StatusOK, js.view(false))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// Hits are requests served without simulating: the runner cache's,
	// plus the submissions the answer table settled.
	hits, misses := s.cache.Counters()
	view := StatsView{
		Cache: CacheView{
			Entries:     s.cache.Len(),
			Hits:        hits,
			Misses:      misses,
			Coalesced:   s.cache.Coalesced(),
			Quarantined: s.cache.Quarantined(),
		},
	}
	s.mu.Lock()
	view.Cache.Hits += uint64(s.answered)
	view.UptimeMS = time.Since(s.start).Milliseconds()
	view.Draining = s.draining
	view.Workers = s.cfg.workers()
	view.Submitted = s.submitted
	view.Completed = s.completed
	view.Failed = s.failed
	view.Cancelled = s.cancelled
	view.Rejected = s.rejected
	view.Running = s.running
	view.Queued = s.queued
	if len(s.queues) > 0 {
		view.Tenants = make(map[string]int, len(s.queues))
		for tenant, q := range s.queues {
			view.Tenants[tenant] = len(q)
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
