// Command dlpserved runs the simulation job server: a persistent HTTP
// service that accepts jobs in the conformance corpus's Spec
// vocabulary, executes them on a shared runner with a shared
// content-addressed result cache, and streams progress back as SSE or
// JSONL.
//
// Usage:
//
//	dlpserved                      serve on 127.0.0.1:8321
//	dlpserved -addr :0 -addr-file addr.txt
//	                               ephemeral port, written to addr.txt
//	dlpserved -j 8 -cores 2        8 simulations in flight, each on
//	                               up to 2 phase shards
//	dlpserved -cache-dir .dlpcache persist results across restarts
//
// API (see internal/serve):
//
//	POST   /jobs[?wait=1]     submit a Spec (config.json bytes work
//	                          verbatim); X-Tenant names the tenant
//	GET    /jobs/{id}         job status
//	GET    /jobs/{id}/stats   normalized stats (corpus byte format)
//	GET    /jobs/{id}/events  SSE progress (?format=jsonl)
//	DELETE /jobs/{id}         cancel
//	GET    /stats             server + cache counters
//	GET    /healthz           liveness
//	POST   /shutdown          graceful drain
//
// SIGINT/SIGTERM drain gracefully (bounded by -drain) and exit 130, the
// same interrupt contract as the batch CLIs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/runner"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dlpserved: ")
	addr := flag.String("addr", "127.0.0.1:8321", "listen address (host:port; port 0 = ephemeral)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	jobs := flag.Int("j", 0, "simulations in flight across all tenants; 0 = GOMAXPROCS")
	coresFlag := flag.Int("cores", 1, "per-simulation phase-parallelism cap (0 = auto: all host CPUs); results identical at any value")
	queueDepth := flag.Int("queue", 64, "pending jobs allowed per tenant before 429")
	cacheDir := flag.String("cache-dir", "", "persist the result cache to this directory (\"\" = memory only)")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per job; 0 = none")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget before cancelling stragglers")
	selfcheck := flag.Bool("selfcheck", false, "run sampled invariant sweeps on every job")
	retries := flag.Int("retries", 0, "transient-failure retries per job")
	flag.Parse()
	cores, err := cli.ResolveCores(*coresFlag)
	if err != nil {
		log.Fatal(err)
	}

	if err := run(*addr, *addrFile, serve.Config{
		Workers:      *jobs,
		Cores:        cores,
		QueueDepth:   *queueDepth,
		Timeout:      *timeout,
		DrainTimeout: *drain,
		SelfCheck:    *selfcheck,
		Retries:      *retries,
	}, *cacheDir); err != nil {
		log.Print(err)
		os.Exit(cli.ExitCode(err))
	}
}

func run(addr, addrFile string, cfg serve.Config, cacheDir string) error {
	if cacheDir != "" {
		cache, err := runner.OpenDiskCache(cacheDir)
		if err != nil {
			return fmt.Errorf("opening cache: %w", err)
		}
		cfg.Cache = cache
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listening: %w", err)
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			return fmt.Errorf("writing -addr-file: %w", err)
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	log.Printf("serving on http://%s (workers=%d cores=%d queue=%d)",
		bound, workers, cfg.Cores, cfg.QueueDepth)

	srv := serve.NewServer(cfg)
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	var interrupted bool
	select {
	case <-sig:
		interrupted = true
		log.Printf("interrupt: draining (budget %s)", cfg.DrainTimeout)
		srv.Shutdown(nil)
	case <-srv.Done():
		// POST /shutdown drained the job server; fall through to close
		// the HTTP side.
	case err := <-serveErr:
		srv.Close()
		return fmt.Errorf("http: %w", err)
	}

	closeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(closeCtx)
	log.Print("drained")
	if interrupted {
		// The batch CLIs exit 130 on Ctrl-C; a drained server interrupt
		// is the same contract.
		return &runner.CancelError{Err: context.Canceled}
	}
	return nil
}
