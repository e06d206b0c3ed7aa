package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/conform"
	"repro/internal/faultinject"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// testSpec builds a small synth-workload spec; specs sharing a seed
// share a content address.
func testSpec(t testing.TB, seed uint64) []byte {
	t.Helper()
	sp := conform.Spec{
		Schema: conform.SpecSchema,
		Policy: string(config.PolicyDLP),
		Workload: conform.WorkloadRef{Synth: &workloads.SynthSpec{
			Seed:            seed,
			Blocks:          1,
			WarpsPerBlock:   2,
			MemInsnsPerWarp: 8,
			FootprintLines:  16,
		}},
		MaxCycles: 2_000_000,
	}
	b, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// directStats runs the same spec straight through a private runner and
// normalizes — the ground truth the server must reproduce byte for
// byte.
func directStats(t *testing.T, specBytes []byte) []byte {
	t.Helper()
	sp, err := conform.UnmarshalSpec(specBytes)
	if err != nil {
		t.Fatal(err)
	}
	cfg, pol, kernel, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := &runner.Runner{Workers: 1}
	res, err := r.Run(context.Background(), []runner.Job{{
		Config: cfg, Policy: pol, Kernel: kernel,
		Opts: sim.Options{MaxCycles: sp.MaxCycles},
	}})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := conform.Normalize(res[0].Stats)
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body []byte, tenant string, wait bool) (*http.Response, []byte) {
	t.Helper()
	url := ts.URL + "/jobs"
	if wait {
		url += "?wait=1"
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func compact(t *testing.T, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		t.Fatalf("compacting %q: %v", b, err)
	}
	return buf.Bytes()
}

func decodeView(t *testing.T, b []byte) JobView {
	t.Helper()
	var v JobView
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("decoding job view: %v\n%s", err, b)
	}
	return v
}

func decodeError(t *testing.T, b []byte) ErrorInfo {
	t.Helper()
	var env struct {
		Error ErrorInfo `json:"error"`
	}
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("decoding error envelope: %v\n%s", err, b)
	}
	return env.Error
}

// TestSubmitWaitMatchesDirectRun: a synchronous submission returns the
// same normalized bytes as running the spec directly — HTTP transport
// adds nothing and loses nothing.
func TestSubmitWaitMatchesDirectRun(t *testing.T) {
	spec := testSpec(t, 1)
	want := directStats(t, spec)
	_, ts := startServer(t, Config{Workers: 2})

	resp, body := postJob(t, ts, spec, "", true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, body)
	}
	v := decodeView(t, body)
	if v.Status != StatusDone {
		t.Fatalf("status %q, want done", v.Status)
	}
	// The JSON body carries the stats compacted; compare them so. The
	// /stats endpoint below is the byte-exact surface.
	if !bytes.Equal(compact(t, v.Stats), compact(t, want)) {
		t.Error("inline stats differ from direct run")
	}

	statsResp, err := ts.Client().Get(ts.URL + "/jobs/" + v.ID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	got, _ := io.ReadAll(statsResp.Body)
	if !bytes.Equal(got, want) {
		t.Errorf("GET /jobs/%s/stats bytes differ from direct run", v.ID)
	}
}

// TestAsyncSubmitPollEvents: async submission returns 202 immediately;
// polling reaches done and the JSONL event stream replays the whole
// lifecycle in order.
func TestAsyncSubmitPollEvents(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	resp, body := postJob(t, ts, testSpec(t, 2), "", false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202: %s", resp.StatusCode, body)
	}
	id := decodeView(t, body).ID

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := ts.Client().Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if v := decodeView(t, b); v.Status.Terminal() {
			if v.Status != StatusDone {
				t.Fatalf("job finished %q: %s", v.Status, b)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The event stream of a finished job replays and terminates.
	evResp, err := ts.Client().Get(ts.URL + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	evBody, _ := io.ReadAll(evResp.Body)
	var kinds []string
	for _, line := range strings.Split(strings.TrimSpace(string(evBody)), "\n") {
		var ev JobEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		kinds = append(kinds, ev.Kind)
	}
	want := []string{"queued", "started", "done"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Errorf("event kinds = %v, want %v", kinds, want)
	}
}

// TestBadSpecRejected: an unparseable or unresolvable spec is a 400
// with the stable "spec" error type, before anything is queued.
func TestBadSpecRejected(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{not json`,
		`{"schema": 1, "policy": "NO-SUCH-POLICY", "workload": {"app": "BP"}}`,
		`{"schema": 1, "policy": "DLP", "workload": {}}`,
	} {
		resp, b := postJob(t, ts, []byte(body), "", false)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
			continue
		}
		if info := decodeError(t, b); info.Type != "spec" {
			t.Errorf("body %q: error type %q, want spec", body, info.Type)
		}
	}
	s.mu.Lock()
	if s.submitted != 0 {
		t.Errorf("%d jobs admitted from invalid specs", s.submitted)
	}
	s.mu.Unlock()
}

// TestScaleAboveTheCeilingRefused: a workload scale above maxScale is a
// 422 with the "cost" error type, refused before the spec is built, so
// the server generates nothing for it; the ceiling itself is served.
func TestScaleAboveTheCeilingRefused(t *testing.T) {
	var builds atomic.Int64
	buildSpec = func(*conform.Spec) (*config.Config, config.Policy, *trace.Kernel, error) {
		builds.Add(1)
		return nil, "", nil, errors.New("the test builds no kernel")
	}
	defer func() { buildSpec = (*conform.Spec).Build }()
	s, ts := startServer(t, Config{Workers: 1})
	for _, app := range []string{"MM", "BP"} {
		body := fmt.Sprintf(`{"schema": 1, "policy": "DLP", "workload": {"app": %q, "scale": %d}}`, app, maxScale+1)
		resp, b := postJob(t, ts, []byte(body), "", false)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("scale %d %s: status %d, want 422", maxScale+1, app, resp.StatusCode)
		} else if info := decodeError(t, b); info.Type != "cost" {
			t.Errorf("scale %d %s: error type %q, want cost", maxScale+1, app, info.Type)
		}
	}
	if n := builds.Load(); n != 0 {
		t.Errorf("%d specs built for over-ceiling scales, want none", n)
	}
	body := fmt.Sprintf(`{"schema": 1, "policy": "DLP", "workload": {"app": "BP", "scale": %d}}`, maxScale)
	if resp, _ := postJob(t, ts, []byte(body), "", false); resp.StatusCode != http.StatusBadRequest || builds.Load() != 1 {
		t.Errorf("scale %d: status %d after %d builds, want the seam's 400 after 1", maxScale, resp.StatusCode, builds.Load())
	}
	s.mu.Lock()
	if s.submitted != 0 {
		t.Errorf("%d jobs admitted", s.submitted)
	}
	s.mu.Unlock()
}

// TestCyclesAboveTheCeilingRefused: a max_cycles above maxServedCycles
// is a 422 with the "cost" error type, refused before the spec is
// built; the ceiling itself is served.
func TestCyclesAboveTheCeilingRefused(t *testing.T) {
	var builds atomic.Int64
	buildSpec = func(*conform.Spec) (*config.Config, config.Policy, *trace.Kernel, error) {
		builds.Add(1)
		return nil, "", nil, errors.New("the test builds no kernel")
	}
	defer func() { buildSpec = (*conform.Spec).Build }()
	s, ts := startServer(t, Config{Workers: 1})
	body := func(cycles uint64) []byte {
		return []byte(fmt.Sprintf(`{"schema": 1, "policy": "DLP", "workload": {"app": "BP"}, "max_cycles": %d}`, cycles))
	}
	for _, cycles := range []uint64{maxServedCycles + 1, math.MaxUint64} {
		resp, b := postJob(t, ts, body(cycles), "", false)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("max_cycles %d: status %d, want 422", cycles, resp.StatusCode)
		} else if info := decodeError(t, b); info.Type != "cost" {
			t.Errorf("max_cycles %d: error type %q, want cost", cycles, info.Type)
		}
	}
	if n := builds.Load(); n != 0 {
		t.Errorf("%d specs built for over-ceiling budgets, want none", n)
	}
	if resp, _ := postJob(t, ts, body(maxServedCycles), "", false); resp.StatusCode != http.StatusBadRequest || builds.Load() != 1 {
		t.Errorf("max_cycles %d: status %d after %d builds, want the seam's 400 after 1", uint64(maxServedCycles), resp.StatusCode, builds.Load())
	}
	s.mu.Lock()
	if s.submitted != 0 {
		t.Errorf("%d jobs admitted", s.submitted)
	}
	s.mu.Unlock()
}

// TestPanicBecomesTypedError: a simulation panic (injected through the
// faultinject seam) surfaces as a 500 whose error type is "panic" —
// not a dropped connection, not a generic message.
func TestPanicBecomesTypedError(t *testing.T) {
	plan := faultinject.NewPlan(1)
	plan.Set(0, faultinject.Fault{Kind: faultinject.Panic})
	_, ts := startServer(t, Config{Workers: 1, Intercept: plan.Intercept()})

	resp, body := postJob(t, ts, testSpec(t, 4), "", true)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	v := decodeView(t, body)
	if v.Status != StatusFailed {
		t.Errorf("job status %q, want failed", v.Status)
	}
	if v.Error == nil || v.Error.Type != "panic" {
		t.Errorf("error = %+v, want type panic", v.Error)
	}
}

// TestDeadlineIsPartialFailure: a job exceeding the per-job wall budget
// comes back 504 with the "deadline" error type.
func TestDeadlineIsPartialFailure(t *testing.T) {
	plan := faultinject.NewPlan(1)
	plan.Set(0, faultinject.Fault{Kind: faultinject.Hang})
	_, ts := startServer(t, Config{Workers: 1, Timeout: 50 * time.Millisecond, Intercept: plan.Intercept()})

	resp, body := postJob(t, ts, testSpec(t, 5), "", true)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	v := decodeView(t, body)
	if v.Status != StatusFailed {
		t.Errorf("job status %q, want failed", v.Status)
	}
	if v.Error == nil || v.Error.Type != "deadline" {
		t.Errorf("error = %+v, want type deadline", v.Error)
	}
}

// hangIntercept blocks every simulation until release closes (or its
// context dies), signalling entry on entered.
func hangIntercept(entered chan<- string, release <-chan struct{}) runner.Intercept {
	return func(ctx context.Context, index, attempt int, job runner.Job, run runner.SimFunc) (*stats.Stats, error) {
		select {
		case entered <- job.Label:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		select {
		case <-release:
			return run(ctx)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestDeleteCancelsRunningJob: DELETE on a running job interrupts it
// through its context and reports it cancelled.
func TestDeleteCancelsRunningJob(t *testing.T) {
	entered := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	s, ts := startServer(t, Config{Workers: 1, Intercept: hangIntercept(entered, release)})

	_, body := postJob(t, ts, testSpec(t, 6), "", false)
	id := decodeView(t, body).ID
	<-entered // the job is mid-simulation

	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+id, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	v := decodeView(t, b)
	if v.Status != StatusCancelled {
		t.Fatalf("status after DELETE = %q, want cancelled: %s", v.Status, b)
	}
	// The worker books the cancellation just after it settles the job,
	// which is what released the DELETE response; the drain returns once
	// the worker is done with it.
	s.Shutdown(context.Background())
	s.mu.Lock()
	cancelled := s.cancelled
	s.mu.Unlock()
	if cancelled != 1 {
		t.Errorf("server counted %d cancellations, want 1", cancelled)
	}
}

// getStats reads GET /stats.
func getStats(t *testing.T, ts *httptest.Server) StatsView {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sv StatsView
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	return sv
}

// TestDeleteOfAClaimedJobLeavesNothingRunning holds a job a worker has
// claimed but not yet executed, so it is still queued, and DELETEs it:
// the DELETE settles it, and /stats read right after must count it as
// cancelled, not as running. Once the worker lets go, nothing is
// counted twice.
func TestDeleteOfAClaimedJobLeavesNothingRunning(t *testing.T) {
	held := make(chan string, 1)
	release := make(chan struct{})
	claimed = func(js *jobState) {
		held <- js.id
		<-release
	}
	defer func() { claimed = func(*jobState) {} }()
	s, ts := startServer(t, Config{Workers: 1})

	_, body := postJob(t, ts, testSpec(t, 7), "", false)
	id := decodeView(t, body).ID
	if got := <-held; got != id {
		t.Fatalf("worker holds %s, want %s", got, id)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+id, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if v := decodeView(t, b); v.Status != StatusCancelled {
		t.Fatalf("status after DELETE = %q, want cancelled: %s", v.Status, b)
	}
	if sv := getStats(t, ts); sv.Running != 0 || sv.Queued != 0 || sv.Cancelled != 1 {
		t.Errorf("after the DELETE returned: running=%d queued=%d cancelled=%d, want 0/0/1", sv.Running, sv.Queued, sv.Cancelled)
	}

	close(release)
	s.Shutdown(context.Background())
	if sv := getStats(t, ts); sv.Running != 0 || sv.Cancelled != 1 || sv.Completed != 0 {
		t.Errorf("after the worker let go: running=%d cancelled=%d completed=%d, want 0/1/0", sv.Running, sv.Cancelled, sv.Completed)
	}
}

// TestClientDisconnectCancelsJob: abandoning a synchronous submission
// cancels the job mid-flight — the connection is the lease.
func TestClientDisconnectCancelsJob(t *testing.T) {
	entered := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	s, ts := startServer(t, Config{Workers: 1, Intercept: hangIntercept(entered, release)})

	reqCtx, abandon := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(reqCtx, "POST", ts.URL+"/jobs?wait=1", bytes.NewReader(testSpec(t, 7)))
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered // simulation in flight on behalf of the waiting client
	abandon()
	if err := <-errc; err == nil {
		t.Fatal("abandoned request returned a response")
	}

	// The server notices the disconnect and cancels the job.
	s.mu.Lock()
	js := s.jobs["j1"]
	s.mu.Unlock()
	if js == nil {
		t.Fatal("job j1 not found")
	}
	select {
	case <-js.done:
	case <-time.After(30 * time.Second):
		t.Fatal("job never settled after client disconnect")
	}
	if got := js.view(false).Status; got != StatusCancelled {
		t.Fatalf("job status %q after disconnect, want cancelled", got)
	}
}

// TestBackpressure429: submissions beyond the per-tenant queue bound
// are rejected with 429 and a Retry-After hint; other tenants are
// unaffected.
func TestBackpressure429(t *testing.T) {
	entered := make(chan string, 1)
	release := make(chan struct{})
	_, ts := startServer(t, Config{
		Workers: 1, QueueDepth: 1,
		Intercept: hangIntercept(entered, release),
	})

	// Seeds differ: three distinct jobs, no dedup. j1 runs (hung), j2
	// fills tenant A's queue, j3 must bounce.
	if resp, _ := postJob(t, ts, testSpec(t, 8), "A", false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first job: status %d", resp.StatusCode)
	}
	<-entered
	if resp, _ := postJob(t, ts, testSpec(t, 9), "A", false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second job: status %d", resp.StatusCode)
	}
	resp, b := postJob(t, ts, testSpec(t, 10), "A", false)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third job: status %d, want 429: %s", resp.StatusCode, b)
	}
	if info := decodeError(t, b); info.Type != "backpressure" {
		t.Errorf("error type %q, want backpressure", info.Type)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want 1", ra)
	}
	// A full tenant-A queue must not reject tenant B.
	if resp, _ := postJob(t, ts, testSpec(t, 11), "B", false); resp.StatusCode != http.StatusAccepted {
		t.Errorf("tenant B rejected while only A's queue is full: status %d", resp.StatusCode)
	}
	close(release)
}

// TestFairFIFOAcrossTenants: with one worker, a tenant flooding its
// queue does not starve another tenant — dispatch is round-robin across
// tenants, FIFO within one.
func TestFairFIFOAcrossTenants(t *testing.T) {
	entered := make(chan string, 16)
	release := make(chan struct{})
	_, ts := startServer(t, Config{Workers: 1, Intercept: hangIntercept(entered, release)})

	postJob(t, ts, testSpec(t, 20), "flood", false) // claims the worker
	first := <-entered
	if !strings.Contains(first, "flood") {
		t.Fatalf("first running job %q is not flood's", first)
	}
	// Flood three more, then one job from a second tenant.
	for seed := uint64(21); seed <= 23; seed++ {
		postJob(t, ts, testSpec(t, seed), "flood", false)
	}
	postJob(t, ts, testSpec(t, 24), "quiet", false)

	close(release) // free the worker; the queue drains one at a time
	var order []string
	for i := 0; i < 4; i++ {
		select {
		case label := <-entered:
			order = append(order, label)
		case <-time.After(30 * time.Second):
			t.Fatalf("queue stalled; saw %v", order)
		}
	}
	// Round-robin: quiet's job waits behind at most one flood job, not
	// the whole backlog.
	quietAt := -1
	for i, label := range order {
		if strings.Contains(label, "quiet") {
			quietAt = i
		}
	}
	if quietAt < 0 || quietAt > 1 {
		t.Errorf("quiet tenant waited behind the flood: dispatch order %v", order)
	}
}

// submitDrained submits n asynchronous jobs of one spec straight into
// the server, each from a tenant of its own, and waits until every one
// of them has finished. All but the first are cache hits or answers.
func submitDrained(t *testing.T, s *Server, spec []byte, n int) {
	t.Helper()
	jobs := make([]*jobState, n)
	for i := range jobs {
		js, serr := s.submit(spec, fmt.Sprintf("tenant-%d", i), false)
		if serr != nil {
			t.Fatalf("submit %d: %d %+v", i, serr.status, serr.info)
		}
		jobs[i] = js
	}
	for i, js := range jobs {
		select {
		case <-js.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("job %d never finished", i)
		}
	}
}

// TestDrainedTenantsAreForgotten: a tenant whose queue empties leaves
// the dispatcher's state, so a client cycling through tenant names
// cannot grow the server's memory or the dispatch scan without bound.
func TestDrainedTenantsAreForgotten(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 2})
	const tenants = 5000
	submitDrained(t, s, testSpec(t, 80), tenants)

	s.mu.Lock()
	ring, queues := len(s.ring), len(s.queues)
	s.mu.Unlock()
	if ring != 0 || queues != 0 {
		t.Errorf("after every tenant drained: %d tenants in the ring, %d queues, want 0 and 0", ring, queues)
	}
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sv StatsView
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	if sv.Tenants != nil || sv.Completed != tenants {
		t.Errorf("/stats: tenants %v, completed %d; want none and %d", sv.Tenants, sv.Completed, tenants)
	}
}

// TestHistoryEvictsOldestJobs: past historyLimit finished jobs, the
// oldest records are evicted — GET on them is a typed 404 — while the
// newest stay readable.
func TestHistoryEvictsOldestJobs(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 2})
	n := historyLimit + 6
	// j1 settles first, so it is the oldest record. Submitted together,
	// it could still be waking from a co-submitter's flight while later
	// repeats are answered from the table and retired ahead of it.
	submitDrained(t, s, testSpec(t, 81), 1)
	submitDrained(t, s, testSpec(t, 81), n-1)

	s.mu.Lock()
	kept, running := len(s.jobs), s.running
	s.mu.Unlock()
	if kept > historyLimit+running {
		t.Errorf("%d job records kept with %d in flight, want at most %d", kept, running, historyLimit+running)
	}
	get := func(id string) (*http.Response, []byte) {
		resp, err := ts.Client().Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}
	if resp, b := get("j1"); resp.StatusCode != http.StatusNotFound || decodeError(t, b).Type != "unknown-job" {
		t.Errorf("evicted job j1: status %d, body %s; want 404 unknown-job", resp.StatusCode, b)
	}
	newest := fmt.Sprintf("j%d", n)
	if resp, b := get(newest); resp.StatusCode != http.StatusOK || decodeView(t, b).Status != StatusDone {
		t.Errorf("newest job %s: status %d, body %s; want 200 done", newest, resp.StatusCode, b)
	}
}

// TestGracefulShutdownDrains: Shutdown completes queued work, then new
// submissions get 503 and so does /healthz.
func TestGracefulShutdownDrains(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 2})
	var ids []string
	for seed := uint64(30); seed < 33; seed++ {
		_, body := postJob(t, ts, testSpec(t, seed), "", false)
		ids = append(ids, decodeView(t, body).ID)
	}

	s.Shutdown(nil)
	// Every pre-shutdown job ran to completion, none were cancelled.
	for _, id := range ids {
		s.mu.Lock()
		js := s.jobs[id]
		s.mu.Unlock()
		if got := js.view(false).Status; got != StatusDone {
			t.Errorf("job %s drained as %q, want done", id, got)
		}
	}
	if resp, _ := postJob(t, ts, testSpec(t, 40), "", false); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submission: status %d, want 503", resp.StatusCode)
	}
	hResp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hResp.Body.Close()
	if hResp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown: status %d, want 503", hResp.StatusCode)
	}
}

// TestShutdownReleasesKernels: a drained server keeps no job's kernel —
// only a run needed it — while the job's stats stay readable.
func TestShutdownReleasesKernels(t *testing.T) {
	// The jobs are held until their kernels have been seen: a job lets
	// go of its kernel as soon as it settles.
	entered, release := make(chan string, 3), make(chan struct{})
	s, ts := startServer(t, Config{Workers: 2, Intercept: hangIntercept(entered, release)})
	var ids []string
	for seed := uint64(60); seed < 63; seed++ {
		_, body := postJob(t, ts, testSpec(t, seed), "", false)
		ids = append(ids, decodeView(t, body).ID)
	}
	s.mu.Lock()
	for _, id := range ids {
		if s.jobs[id].rjob.Kernel == nil {
			t.Errorf("job %s has no kernel before it ran", id)
		}
	}
	s.mu.Unlock()

	close(release)
	s.Shutdown(nil)
	for _, id := range ids {
		s.mu.Lock()
		js := s.jobs[id]
		s.mu.Unlock()
		if js.rjob.Kernel != nil {
			t.Errorf("job %s still holds its kernel after the drain", id)
		}
		resp, err := ts.Client().Get(ts.URL + "/jobs/" + id + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("stats of job %s after the drain: status %d", id, resp.StatusCode)
		}
	}
}

// TestDrainDeadlineCancelsStragglers: a job that refuses to finish is
// cancelled when the drain budget expires, and shutdown still
// completes.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	entered := make(chan string, 1)
	release := make(chan struct{}) // never closed: the job hangs forever
	s, ts := startServer(t, Config{
		Workers: 1, DrainTimeout: 100 * time.Millisecond,
		Intercept: hangIntercept(entered, release),
	})
	_, body := postJob(t, ts, testSpec(t, 50), "", false)
	id := decodeView(t, body).ID
	<-entered

	start := time.Now()
	s.Shutdown(nil)
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("drain of a hung job took %v", elapsed)
	}
	s.mu.Lock()
	js := s.jobs[id]
	s.mu.Unlock()
	if got := js.view(false).Status; got != StatusCancelled {
		t.Errorf("hung job drained as %q, want cancelled", got)
	}
}

// TestDedupStormSingleSimulation: concurrent synchronous submissions of
// one content address through HTTP collapse into one simulation; every
// client gets byte-identical stats.
func TestDedupStormSingleSimulation(t *testing.T) {
	const clients = 6
	spec := testSpec(t, 60)
	want := directStats(t, spec)

	var sims int32
	entered := make(chan string, clients)
	release := make(chan struct{})
	intercept := func(ctx context.Context, index, attempt int, job runner.Job, run runner.SimFunc) (*stats.Stats, error) {
		entered <- job.Label
		sims++ // single writer if single-flight holds; the race detector confirms
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return run(ctx)
	}
	s, ts := startServer(t, Config{Workers: clients, Intercept: intercept})

	type out struct {
		status int
		body   []byte
	}
	results := make(chan out, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp, body := postJob(t, ts, spec, fmt.Sprintf("t%d", i%3), true)
			results <- out{resp.StatusCode, body}
		}()
	}
	<-entered // the leader is simulating
	// Park every other client on the leader's flight before releasing.
	deadline := time.Now().Add(30 * time.Second)
	for s.Cache().Coalesced() < clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d clients coalesced", s.Cache().Coalesced())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	for i := 0; i < clients; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("client got %d: %s", r.status, r.body)
		}
		if v := decodeView(t, r.body); !bytes.Equal(compact(t, v.Stats), compact(t, want)) {
			t.Errorf("client stats differ from direct run")
		}
	}
	if sims != 1 {
		t.Errorf("%d simulations for one shared key, want 1", sims)
	}
}

// TestStatsEndpoint: /stats reflects the work the server has done.
func TestStatsEndpoint(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2})
	postJob(t, ts, testSpec(t, 70), "", true)
	postJob(t, ts, testSpec(t, 70), "", true) // cache hit

	sv := getStats(t, ts)
	if sv.Submitted != 2 || sv.Completed != 2 {
		t.Errorf("submitted=%d completed=%d, want 2/2", sv.Submitted, sv.Completed)
	}
	if sv.Cache.Hits < 1 {
		t.Errorf("cache hits = %d, want >= 1 (second submission is a repeat)", sv.Cache.Hits)
	}
	if sv.Workers != 2 {
		t.Errorf("workers = %d, want 2", sv.Workers)
	}
}

// TestSubmitHashesOutsideTheServerLock holds one submit inside the spec
// build — where a missed body pays for kernel generation and the checks,
// after its digest — and requires the server lock to be free meanwhile:
// GET /stats answers, and so does a DELETE of an unknown job.
func TestSubmitHashesOutsideTheServerLock(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	buildSpec = func(sp *conform.Spec) (*config.Config, config.Policy, *trace.Kernel, error) {
		close(entered)
		<-release
		return sp.Build()
	}
	defer func() { buildSpec = (*conform.Spec).Build }()
	_, ts := startServer(t, Config{Workers: 1})

	posted := make(chan int, 1)
	go func() {
		resp, _ := postJob(t, ts, testSpec(t, 90), "", true)
		posted <- resp.StatusCode
	}()
	<-entered

	answered := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/stats")
		if err == nil {
			var sv StatsView
			err = json.NewDecoder(resp.Body).Decode(&sv)
			resp.Body.Close()
			if err == nil && sv.Submitted != 0 {
				err = fmt.Errorf("%d jobs submitted while the only submit is still building", sv.Submitted)
			}
		}
		if err == nil {
			var req *http.Request
			if req, err = http.NewRequest("DELETE", ts.URL+"/jobs/j999", nil); err == nil {
				if resp, err = ts.Client().Do(req); err == nil {
					resp.Body.Close()
				}
			}
		}
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("GET /stats and DELETE wait behind a submit that is building its spec")
	}
	close(release)
	if code := <-posted; code != http.StatusOK {
		t.Errorf("the held submit finished with status %d", code)
	}
}
