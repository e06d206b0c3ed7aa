// Command dlpbench is the repository's benchmark: four workloads, each
// run as up to five identical rounds in one process with the best round
// reported, seven end-to-end metrics, and — in a separate traced run —
// the per-layer ledger. README.md has the definitions.
//
// The driver runs it through run.sh as
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/benchfmt"
)

func allWorkloads() []workload {
	return []workload{
		{def: workloadDefs[0], newRound: newSuiteRound},
		{def: workloadDefs[1], newRound: newStreamRound},
		{def: workloadDefs[2], newRound: newColdRound, minBeyond: minBeyond},
		{def: workloadDefs[3], newRound: newHotRound, minBeyond: minBeyond},
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceOut string
	update   bool
	aa       int
	workdir  string
	expected string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: suite_batch, big_stream, serve_cold or serve_hot")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed (2 is held back for claims)")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "measured seconds: buys seconds/5 identical rounds, at most 5")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run that prints the per-layer ledger instead of the end-to-end metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: Chrome trace file (default <workdir>/trace-<workload>.json)")
	flag.BoolVar(&o.update, "update", false, "regenerate the committed digests for this workload and seed")
	flag.IntVar(&o.aa, "aa", 0, "A/A self-check: two interleaved sets of N runs per workload, printed as the NOISE.md table")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the lock file, scratch files and traces")
	flag.StringVar(&o.expected, "expected-dir", filepath.Join("bench", "expected"), "with -update: where digests are written")
	manifestOnly := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *manifestOnly {
		if err := validateManifest(currentManifest()); err != nil {
			fatal(err)
		}
		b, err := manifestJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	if o.aa > 0 {
		err = runAA(ctx, o)
	} else {
		err = runOne(ctx, o)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlpbench:", err)
	os.Exit(1)
}

// provenance is stamped on every output, one line before the result.
type provenance struct {
	Bench       string  `json:"bench"`
	Workload    string  `json:"workload"`
	Seed        uint64  `json:"seed"`
	Trace       int     `json:"trace"`
	Host        string  `json:"host"`
	GoVersion   string  `json:"go"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Rounds      int     `json:"rounds"`
	BestRound   int     `json:"best_round"`
	RoundSpread float64 `json:"round_spread"`
	TimeBasis   string  `json:"time_basis"`
}

// runOne is one workload run: one process, one lock, up to five rounds.
func runOne(ctx context.Context, o options) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1, not %d", o.trace)
	}
	if o.update && o.trace == 1 {
		return fmt.Errorf("-update regenerates digests from an end-to-end run; drop -trace 1")
	}
	// Two Ps at most, whatever the host has: the workloads are sized for
	// two simulation workers, and workloads never run concurrently.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	unlock, err := lockFile(filepath.Join(o.workdir, "bench.lock"))
	if err != nil {
		return err
	}
	defer unlock()
	tmp, err := os.MkdirTemp(o.workdir, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	var expected map[string]string
	if !o.update {
		if expected, err = loadExpected(w.def.Name, o.seed); err != nil {
			return err
		}
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "[%s seed %d] "+format+"\n", append([]any{w.def.Name, o.seed}, args...)...)
	}
	e := &env{seed: o.seed, load: 1, chk: newChecker(expected), tmp: tmp}

	var metrics map[string]metricValue
	prov := provenance{
		Bench: "dlpbench", Workload: w.def.Name, Seed: o.seed, Trace: o.trace,
		Host: benchfmt.CurrentHost().Fingerprint(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		TimeBasis:  "host time; simulated statistics are checked exactly, never timed",
	}
	if o.trace == 1 {
		metrics, err = tracedRun(ctx, w, e, o, &prov, logf)
	} else {
		// The whole run, set-ups included, may take 1.35x the measured
		// seconds; past that, remaining rounds are dropped.
		budget := time.Duration(float64(o.seconds) * 1.35 * float64(time.Second))
		var rounds []roundStats
		rounds, err = runRounds(ctx, w, e, roundsFor(o.seconds), budget, logf)
		if err == nil {
			prov.Rounds, prov.BestRound, prov.RoundSpread = len(rounds), bestRound(rounds)+1, roundSpread(rounds)
			metrics, err = endToEndMetrics(w, rounds)
		}
	}
	if err != nil {
		return err
	}
	if o.update {
		if err := e.chk.writeExpected(o.expected, w.def.Name, o.seed); err != nil {
			return err
		}
		logf("wrote %s", filepath.Join(o.expected, expectedName(w.def.Name, o.seed)))
	}
	for _, why := range e.chk.reasons {
		logf("FAILED: %s", why)
	}
	res := result{Correct: e.chk.failed == 0, Attempted: e.chk.attempted, Failed: e.chk.failed, Metrics: metrics}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	if err := validateResult(res, defs); err != nil {
		return fmt.Errorf("result breaks the contract: %w", err)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(prov); err != nil {
		return err
	}
	return enc.Encode(res)
}

// lockFile takes an exclusive advisory lock, refusing to start while
// another dlpbench holds it: two benchmark processes on one host measure
// each other. The kernel drops the lock if the process dies.
func lockFile(path string) (unlock func(), err error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("another dlpbench holds %s; workloads are never run concurrently", path)
		}
		return nil, err
	}
	return func() {
		_ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}, nil
}
