package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/conform"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// getPath GETs a server path and returns the response with its body.
func getPath(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
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

// jobEvents reads a settled job's whole event log.
func jobEvents(t *testing.T, ts *httptest.Server, id string) []JobEvent {
	t.Helper()
	_, b := getPath(t, ts, "/jobs/"+id+"/events")
	var evs []JobEvent
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var ev JobEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// countBuilds counts the spec builds submit makes until the test ends.
func countBuilds(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	buildSpec = func(sp *conform.Spec) (*config.Config, config.Policy, *trace.Kernel, error) {
		n.Add(1)
		return sp.Build()
	}
	t.Cleanup(func() { buildSpec = (*conform.Spec).Build })
	return &n
}

// runOnceStats simulates a spec with sim.RunOnce, no runner in between,
// and normalizes the result.
func runOnceStats(t *testing.T, specBytes []byte) []byte {
	t.Helper()
	sp, err := conform.UnmarshalSpec(specBytes)
	if err != nil {
		t.Fatal(err)
	}
	cfg, pol, kernel, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.RunOnce(context.Background(), cfg, pol, kernel, sim.Options{MaxCycles: sp.MaxCycles})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := conform.Normalize(st)
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

// TestRepeatIsAnsweredFromTheTable: a repeat of a body that settled done
// is answered with the same bytes, as a cached job whose log is queued
// then done, and without building its spec.
func TestRepeatIsAnsweredFromTheTable(t *testing.T) {
	spec := testSpec(t, 100)
	direct := runOnceStats(t, spec)
	_, ts := startServer(t, Config{Workers: 1})

	resp, body := postJob(t, ts, spec, "A", true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first submission: status %d: %s", resp.StatusCode, body)
	}
	first := decodeView(t, body)
	_, firstStats := getPath(t, ts, "/jobs/"+first.ID+"/stats")

	builds := countBuilds(t)
	resp, body = postJob(t, ts, spec, "B", true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat: status %d: %s", resp.StatusCode, body)
	}
	v := decodeView(t, body)
	if n := builds.Load(); n != 0 {
		t.Errorf("the repeat built its spec %d times, want 0", n)
	}
	if v.ID == first.ID || v.Tenant != "B" || v.Status != StatusDone || !v.Cached || v.Cycles != first.Cycles {
		t.Errorf("repeat is %+v; want a new done, cached job of tenant B with %d cycles", v, first.Cycles)
	}
	_, got := getPath(t, ts, "/jobs/"+v.ID+"/stats")
	if !bytes.Equal(got, firstStats) || !bytes.Equal(got, direct) {
		t.Errorf("repeat's stats differ from the first run's or from sim.RunOnce's:\n%s", got)
	}

	evs := jobEvents(t, ts, v.ID)
	var kinds []string
	for _, ev := range evs {
		kinds = append(kinds, ev.Kind)
	}
	if fmt.Sprint(kinds) != "[queued done]" {
		t.Fatalf("repeat's event kinds = %v, want [queued done]", kinds)
	}
	if done := evs[1]; !done.Cached || done.Cycles != first.Cycles {
		t.Errorf("repeat's done event %+v, want cached with %d cycles", done, first.Cycles)
	}
}

// TestUnsettledJobsAreNotRemembered: a job that ends cancelled, failed
// or past its deadline leaves no answer behind — its resubmission
// simulates — while the done one that follows does.
func TestUnsettledJobsAreNotRemembered(t *testing.T) {
	for i, ending := range []string{"cancelled", "failed", "deadline"} {
		t.Run(ending, func(t *testing.T) {
			var sims atomic.Int64
			entered := make(chan struct{}, 1)
			intercept := func(ctx context.Context, index, attempt int, job runner.Job, run runner.SimFunc) (*stats.Stats, error) {
				if sims.Add(1) > 1 {
					return run(ctx)
				}
				entered <- struct{}{}
				if ending == "failed" {
					panic("injected")
				}
				<-ctx.Done() // a DELETE, or the job's deadline
				return nil, ctx.Err()
			}
			cfg := Config{Workers: 1, Intercept: intercept}
			if ending == "deadline" {
				cfg.Timeout = 500 * time.Millisecond
			}
			_, ts := startServer(t, cfg)
			spec := testSpec(t, 200+uint64(i))

			resp, body := postJob(t, ts, spec, "", false)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
			}
			id := decodeView(t, body).ID
			<-entered
			if ending == "cancelled" {
				req, _ := http.NewRequest("DELETE", ts.URL+"/jobs/"+id, nil)
				dresp, err := ts.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				dresp.Body.Close()
			}
			var v JobView
			for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
				_, b := getPath(t, ts, "/jobs/"+id)
				if v = decodeView(t, b); v.Status.Terminal() {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the first job never settled")
				}
			}
			wantType := map[string]string{"cancelled": "cancelled", "failed": "panic", "deadline": "deadline"}[ending]
			if v.Status == StatusDone || v.Error == nil || v.Error.Type != wantType {
				t.Fatalf("first job settled as %+v, want error type %s", v, wantType)
			}

			for round, wantSims := range []int64{2, 2} {
				resp, body = postJob(t, ts, spec, "", true)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("resubmission %d: status %d: %s", round+1, resp.StatusCode, body)
				}
				if n := sims.Load(); n != wantSims {
					t.Errorf("after resubmission %d: %d simulations, want %d", round+1, n, wantSims)
				}
			}
		})
	}
}

// TestAnswerTableIsBounded: past answersLimit answers the table drops
// the least recently used one and keeps exactly the bound; a repeat is a
// use, so an answer a repeat touched meanwhile survives.
func TestAnswerTableIsBounded(t *testing.T) {
	s, _ := startServer(t, Config{Workers: 1})
	// The bodies are not specs: a repeat never decodes its body, and a
	// body whose answer is gone is refused as a bad spec.
	body := func(i int) []byte { return []byte(fmt.Sprintf("body %d", i)) }
	remember := func(i int) {
		s.mu.Lock()
		s.answers.put(&answer{digest: sha256.Sum256(body(i)), stats: []byte(fmt.Sprint(i)), cycles: uint64(i) + 1})
		s.mu.Unlock()
	}
	answered := func(i int) bool {
		t.Helper()
		js, serr := s.submit(body(i), "", false)
		if serr != nil {
			if serr.status != http.StatusBadRequest {
				t.Fatalf("body %d: status %d %+v", i, serr.status, serr.info)
			}
			return false
		}
		if v := js.view(false); v.Status != StatusDone || v.Cycles != uint64(i)+1 || string(js.stats) != fmt.Sprint(i) {
			t.Fatalf("body %d answered as %+v with stats %q", i, v, js.stats)
		}
		return true
	}

	for i := 0; i < answersLimit; i++ {
		remember(i)
	}
	if !answered(0) { // the oldest answer becomes the most recently used
		t.Fatal("a remembered body was not answered")
	}
	remember(answersLimit)

	s.mu.Lock()
	entries, indexed := s.answers.order.Len(), len(s.answers.byDigest)
	s.mu.Unlock()
	if entries != answersLimit || indexed != answersLimit {
		t.Errorf("after %d answers the table holds %d (%d indexed), want %d", answersLimit+1, entries, indexed, answersLimit)
	}
	if answered(1) {
		t.Error("the least recently used answer survived one answer past the bound")
	}
	if !answered(0) {
		t.Error("an answer touched by a repeat was evicted")
	}
	if !answered(answersLimit) {
		t.Error("the newest answer is missing")
	}
}

// gatedIntercept runs simulations straight through until hang is set,
// then holds each one like hangIntercept.
func gatedIntercept(hang *atomic.Bool, entered chan<- string, release <-chan struct{}) runner.Intercept {
	held := hangIntercept(entered, release)
	return func(ctx context.Context, index, attempt int, job runner.Job, run runner.SimFunc) (*stats.Stats, error) {
		if hang.Load() {
			return held(ctx, index, attempt, job, run)
		}
		return run(ctx)
	}
}

// TestDrainingRefusesRememberedBody: while the server drains, a body it
// has an answer for is refused with 503 like any other.
func TestDrainingRefusesRememberedBody(t *testing.T) {
	var hang atomic.Bool
	entered := make(chan string, 1)
	release := make(chan struct{})
	s, ts := startServer(t, Config{Workers: 1, Intercept: gatedIntercept(&hang, entered, release)})
	spec := testSpec(t, 210)
	if resp, body := postJob(t, ts, spec, "", true); resp.StatusCode != http.StatusOK {
		t.Fatalf("first submission: status %d: %s", resp.StatusCode, body)
	}

	// A held job keeps the drain open.
	hang.Store(true)
	postJob(t, ts, testSpec(t, 211), "", false)
	<-entered
	drained := make(chan struct{})
	go func() { s.Shutdown(context.Background()); close(drained) }()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the server never started draining")
		}
	}

	resp, body := postJob(t, ts, spec, "", true)
	if resp.StatusCode != http.StatusServiceUnavailable || decodeError(t, body).Type != "draining" {
		t.Errorf("remembered body while draining: status %d: %s; want 503 draining", resp.StatusCode, body)
	}
	close(release)
	<-drained
}

// TestFullQueueStillGetsRememberedAnswer: a tenant whose queue is full
// is refused new work with 429 but gets a remembered answer at once —
// an answer takes no queue slot.
func TestFullQueueStillGetsRememberedAnswer(t *testing.T) {
	var hang atomic.Bool
	entered := make(chan string, 1)
	release := make(chan struct{})
	defer close(release)
	s, ts := startServer(t, Config{Workers: 1, QueueDepth: 1, Intercept: gatedIntercept(&hang, entered, release)})
	spec := testSpec(t, 220)
	if resp, body := postJob(t, ts, spec, "A", true); resp.StatusCode != http.StatusOK {
		t.Fatalf("first submission: status %d: %s", resp.StatusCode, body)
	}

	// j2 runs (held), j3 fills tenant A's queue, and new work bounces.
	hang.Store(true)
	if resp, _ := postJob(t, ts, testSpec(t, 221), "A", false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("held job: status %d", resp.StatusCode)
	}
	<-entered
	if resp, _ := postJob(t, ts, testSpec(t, 222), "A", false); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued job: status %d", resp.StatusCode)
	}
	if resp, _ := postJob(t, ts, testSpec(t, 223), "A", false); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("new work on a full queue: status %d, want 429", resp.StatusCode)
	}

	resp, body := postJob(t, ts, spec, "A", true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remembered body on a full queue: status %d: %s", resp.StatusCode, body)
	}
	if v := decodeView(t, body); v.Status != StatusDone || !v.Cached {
		t.Errorf("remembered body on a full queue settled as %+v, want done and cached", v)
	}
	s.mu.Lock()
	rejected, queued := s.rejected, s.queued
	s.mu.Unlock()
	if rejected != 1 || queued != 1 {
		t.Errorf("rejected=%d queued=%d, want 1 and 1", rejected, queued)
	}
}
