package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"

	"repro/internal/runner"
	"repro/internal/stats"
)

// TestEveryJSONBodyIsOneCompactLine walks every JSON route — POST /jobs
// with and without ?wait=1 (a miss and a warm hit), GET /jobs/{id},
// DELETE /jobs/{id}, GET /stats and the error bodies — and requires one
// line of compact JSON ending in "\n" that decodes to the route's view
// or error envelope, re-encodes to the same bytes, and re-indented is
// what an indenting encoder writes for that value: only whitespace left
// the wire. GET /jobs/{id}/stats keeps the canonical indented bytes.
func TestEveryJSONBodyIsOneCompactLine(t *testing.T) {
	// The first simulation is held until the test cancels it, so one job
	// can be read while it runs; every later one runs straight through.
	var calls atomic.Int64
	entered := make(chan struct{})
	hold := func(ctx context.Context, _, _ int, _ runner.Job, run runner.SimFunc) (*stats.Stats, error) {
		if calls.Add(1) == 1 {
			close(entered)
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return run(ctx)
	}
	_, ts := startServer(t, Config{Workers: 2, Intercept: hold})

	do := func(method, path string, body []byte) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b.Bytes()
	}

	held := testSpec(t, 100)
	_, b := postJob(t, ts, held, "", false)
	heldID := decodeView(t, b).ID
	<-entered

	spec := testSpec(t, 101)
	want := directStats(t, spec)
	_, b = postJob(t, ts, spec, "", true)
	doneID := decodeView(t, b).ID

	type route struct {
		name, method, path string
		body               []byte
		status             int
		check              func(t *testing.T, body []byte) any // decodes and checks the body, returns the value
	}
	job := func(status Status, withStats bool) func(*testing.T, []byte) any {
		return func(t *testing.T, b []byte) any {
			v := decodeView(t, b)
			if status != "" && v.Status != status {
				t.Errorf("status %q, want %q", v.Status, status)
			}
			if withStats && !bytes.Equal(v.Stats, compact(t, want)) {
				t.Errorf("inline stats are not the direct run's, compacted:\n%s", v.Stats)
			}
			return v
		}
	}
	errorOf := func(want string) func(*testing.T, []byte) any {
		return func(t *testing.T, b []byte) any {
			if info := decodeError(t, b); info.Type != want {
				t.Errorf("error type %q, want %q", info.Type, want)
			}
			var env struct {
				Error ErrorInfo `json:"error"`
			}
			_ = json.Unmarshal(b, &env)
			return env
		}
	}
	routes := []route{
		{"async submit", "POST", "/jobs", testSpec(t, 102), http.StatusAccepted, job("", false)},
		{"sync submit, miss", "POST", "/jobs?wait=1", testSpec(t, 103), http.StatusOK, job(StatusDone, false)},
		{"sync submit, warm hit", "POST", "/jobs?wait=1", spec, http.StatusOK, job(StatusDone, true)},
		{"job", "GET", "/jobs/" + doneID, nil, http.StatusOK, job(StatusDone, true)},
		{"running job's stats", "GET", "/jobs/" + heldID + "/stats", nil, http.StatusConflict, errorOf("not-done")},
		{"cancel", "DELETE", "/jobs/" + heldID, nil, http.StatusOK, job(StatusCancelled, false)},
		{"server stats", "GET", "/stats", nil, http.StatusOK, func(t *testing.T, b []byte) any {
			var sv StatsView
			if err := json.Unmarshal(b, &sv); err != nil {
				t.Fatalf("decoding stats view: %v\n%s", err, b)
			}
			if sv.Workers != 2 || sv.Submitted < 4 {
				t.Errorf("workers %d, submitted %d; want 2 and at least 4", sv.Workers, sv.Submitted)
			}
			return sv
		}},
		{"bad spec", "POST", "/jobs", []byte(`{not json`), http.StatusBadRequest, errorOf("spec")},
		{"over the scale ceiling", "POST", "/jobs",
			[]byte(fmt.Sprintf(`{"schema": 1, "policy": "DLP", "workload": {"app": "BP", "scale": %d}}`, maxScale+1)),
			http.StatusUnprocessableEntity, errorOf("cost")},
		{"unknown job", "GET", "/jobs/j999", nil, http.StatusNotFound, errorOf("unknown-job")},
		{"cancel an unknown job", "DELETE", "/jobs/j999", nil, http.StatusNotFound, errorOf("unknown-job")},
	}
	for _, r := range routes {
		t.Run(r.name, func(t *testing.T) {
			status, b := do(r.method, r.path, r.body)
			if status != r.status {
				t.Fatalf("status %d, want %d: %s", status, r.status, b)
			}
			if bytes.IndexByte(b, '\n') != len(b)-1 {
				t.Fatalf("body is not one line ending in a newline:\n%s", b)
			}
			v := r.check(t, b)
			again, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(again, '\n'), b) {
				t.Errorf("body does not re-encode to itself:\n got %s\nwant %s", b, again)
			}
			var indented, wire bytes.Buffer
			enc := json.NewEncoder(&indented)
			enc.SetIndent("", "  ")
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
			if err := json.Indent(&wire, b, "", "  "); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wire.Bytes(), indented.Bytes()) {
				t.Errorf("re-indented body differs from the indenting encoder's:\n%s\n%s", wire.Bytes(), indented.Bytes())
			}
		})
	}

	if status, b := do("GET", "/jobs/"+doneID+"/stats", nil); status != http.StatusOK || !bytes.Equal(b, want) {
		t.Errorf("GET /jobs/%s/stats: status %d, bytes differ from the canonical stats:\n%s", doneID, status, b)
	}
}
