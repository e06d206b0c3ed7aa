// Command dlpload is the job server's replay client.
//
// Replay mode drives the conformance corpus through a running dlpserved
// end to end: each case's config.json is submitted verbatim and the
// stats the server returns must byte-match the committed
// expected_stats.json — the same drift gate as `conform`, but through
// the HTTP surface.
//
//	dlpload -addr 127.0.0.1:8321 -replay testdata/conform -run 'app-*'
//
// -shutdown drains the server (POST /shutdown) and returns once every
// queued and running job has settled:
//
//	dlpload -addr 127.0.0.1:8321 -shutdown
//
// The benchmark's serve_cold and serve_hot workloads (bench/) are the
// load generators.
//
// Exit codes: 0 all requests behaved, 1 any mismatch, unexpected
// failure or missing mode, 130 interrupted.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"repro/internal/cli"
	"repro/internal/conform"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dlpload: ")
	addr := flag.String("addr", "127.0.0.1:8321", "dlpserved address (host:port)")
	addrFile := flag.String("addr-file", "", "read the server address from this file (overrides -addr)")
	replay := flag.String("replay", "", "replay corpus cases under this directory")
	shutdown := flag.Bool("shutdown", false, "drain the server (POST /shutdown) and exit")
	run := flag.String("run", "", "with -replay: only cases whose name matches this glob")
	timeout := flag.Duration("timeout", 5*time.Minute, "overall client budget")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	if *addrFile != "" {
		b, err := os.ReadFile(*addrFile)
		if err != nil {
			log.Fatal(err)
		}
		*addr = string(bytes.TrimSpace(b))
	}
	cl := &client{base: "http://" + *addr, hc: &http.Client{}}

	var err error
	switch {
	case *shutdown:
		err = cl.shutdown(ctx)
	case *replay != "":
		err = replayCorpus(ctx, cl, *replay, *run)
	default:
		err = errors.New("usage: dlpload [-addr HOST:PORT | -addr-file FILE] (-replay DIR [-run GLOB] | -shutdown)")
	}
	if err != nil {
		log.Print(err)
		os.Exit(cli.ExitCode(err))
	}
}

type client struct {
	base string
	hc   *http.Client
}

// jobView mirrors serve.JobView's fields the client reads.
type jobView struct {
	ID     string     `json:"id"`
	Status string     `json:"status"`
	Cached bool       `json:"cached"`
	Error  *errorInfo `json:"error"`
}

type errorInfo struct {
	Type    string `json:"type"`
	Message string `json:"message"`
}

// submit POSTs a spec body with ?wait=1, so the connection is held
// until the job settles, and decodes the job resource. Returns the HTTP
// status alongside.
func (cl *client) submit(ctx context.Context, body []byte) (*jobView, int, error) {
	req, err := http.NewRequestWithContext(ctx, "POST", cl.base+"/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", "replay")
	resp, err := cl.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	var jv jobView
	if err := json.Unmarshal(b, &jv); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("decoding response (status %d): %w", resp.StatusCode, err)
	}
	if jv.Error == nil {
		// Submit-level errors arrive as {"error": {...}} with no job id.
		var env struct {
			Error *errorInfo `json:"error"`
		}
		if json.Unmarshal(b, &env) == nil {
			jv.Error = env.Error
		}
	}
	return &jv, resp.StatusCode, nil
}

func (cl *client) statsBytes(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", cl.base+"/jobs/"+id+"/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /jobs/%s/stats: status %d: %s", id, resp.StatusCode, b)
	}
	return b, nil
}

// shutdown asks the server to drain; the response arrives once every
// queued and running job has settled.
func (cl *client) shutdown(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, "POST", cl.base+"/shutdown", nil)
	if err != nil {
		return err
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /shutdown: status %d: %s", resp.StatusCode, b)
	}
	log.Print("server drained")
	return nil
}

// replayCorpus submits each case's reference variant and byte-compares
// the server's normalized stats against the committed expectation.
func replayCorpus(ctx context.Context, cl *client, dir, glob string) error {
	cases, err := conform.Discover(dir, glob)
	if err != nil {
		return err
	}
	if len(cases) == 0 {
		return fmt.Errorf("no cases under %s match %q", dir, glob)
	}
	failures := 0
	for _, tc := range cases {
		specBytes, err := os.ReadFile(filepath.Join(tc.Dir, conform.ConfigFile))
		if err != nil {
			return err
		}
		want, err := os.ReadFile(filepath.Join(tc.Dir, conform.ExpectedFile))
		if err != nil {
			return err
		}
		jv, status, err := cl.submit(ctx, specBytes)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.Name, err)
		}
		if status != http.StatusOK || jv.Status != "done" {
			failures++
			log.Printf("%-40s FAILED  status=%d job=%s err=%+v", tc.Name, status, jv.Status, jv.Error)
			continue
		}
		got, err := cl.statsBytes(ctx, jv.ID)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.Name, err)
		}
		if !bytes.Equal(got, want) {
			failures++
			log.Printf("%-40s DRIFT   server stats differ from %s", tc.Name, conform.ExpectedFile)
			continue
		}
		cached := ""
		if jv.Cached {
			cached = " (cached)"
		}
		log.Printf("%-40s ok%s", tc.Name, cached)
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d cases failed over HTTP", failures, len(cases))
	}
	log.Printf("replayed %d cases, all byte-identical", len(cases))
	return nil
}
