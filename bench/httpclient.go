package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/serve"
)

// liveServer is a fresh in-process dlpserved on a loopback listener.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

const serveWorkers = 2

func bootServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{
		srv:  serve.NewServer(serve.Config{Workers: serveWorkers}),
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// stop cancels whatever is still running and waits for the listener
// goroutine and the server's workers to end.
func (s *liveServer) stop() {
	s.srv.Close()
	_ = s.hs.Close()
	<-s.done
}

// client is one closed-loop tenant: one connection, one request at a
// time, the next request only after the previous one completed.
type client struct {
	base   string
	tenant string
	track  int // trace track
	hc     *http.Client
}

func newClient(base, tenant string, track int) *client {
	return &client{
		base:   base,
		tenant: tenant,
		track:  track,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do performs one request and returns the status and the whole body.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Tenant", c.tenant)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// submit POSTs a spec; wait holds the connection until the job settles.
func (c *client) submit(ctx context.Context, body []byte, wait bool) (serve.JobView, int, error) {
	path := "/jobs"
	if wait {
		path += "?wait=1"
	}
	var jv serve.JobView
	status, b, err := c.do(ctx, http.MethodPost, path, body)
	if err != nil {
		return jv, status, err
	}
	if err := json.Unmarshal(b, &jv); err != nil {
		return jv, status, fmt.Errorf("POST %s: status %d: %w", path, status, err)
	}
	if jv.ID == "" {
		return jv, status, fmt.Errorf("POST %s refused: status %d: %s", path, status, bytes.TrimSpace(b))
	}
	return jv, status, nil
}

// follow reads a job's event log to its terminal event: the server ends
// the stream there.
func (c *client) follow(ctx context.Context, id string) ([]serve.JobEvent, error) {
	status, b, err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/events?format=jsonl", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /jobs/%s/events: status %d", id, status)
	}
	var evs []serve.JobEvent
	for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		var ev serve.JobEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return evs, err
		}
		evs = append(evs, ev)
	}
	return evs, nil
}

// statsBytes fetches a done job's normalized stats verbatim.
func (c *client) statsBytes(ctx context.Context, id string) ([]byte, error) {
	status, b, err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/stats", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /jobs/%s/stats: status %d: %s", id, status, bytes.TrimSpace(b))
	}
	return b, nil
}

func (c *client) getJSON(ctx context.Context, method, path string, v any) error {
	status, b, err := c.do(ctx, method, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// eventTimes extracts a job's server-side phases from its event log:
// queue wait (queued -> started) and run (started -> terminal).
func eventTimes(evs []serve.JobEvent) (queueWait, run time.Duration, terminal string) {
	var queued, started, end int64 = -1, -1, -1
	for _, ev := range evs {
		switch ev.Kind {
		case "queued":
			queued = ev.TMS
		case "started":
			started = ev.TMS
		case "done", "failed", "cancelled":
			end, terminal = ev.TMS, ev.Kind
		}
	}
	if queued >= 0 && started >= queued {
		queueWait = time.Duration(started-queued) * time.Millisecond
	}
	if started >= 0 && end >= started {
		run = time.Duration(end-started) * time.Millisecond
	}
	return queueWait, run, terminal
}
