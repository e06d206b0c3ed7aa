// Package cli is the run harness shared by the runner-backed commands
// (dlpsim, paperfigs, ablate): the one declaration of their execution
// flags, and a Session that turns the parsed values into a context, a
// populated runner.Runner and a single exit path. It also holds the
// process exit-code convention every command follows.
//
// Flag groups:
//
//	exec   -retries -timeout -selfcheck -cores -metrics -metrics-every -trace
//	       (dlpsim, paperfigs, ablate)
//	batch  -j -keep-going -quiet -cpuprofile -memprofile
//	       (paperfigs, ablate)
//
// Exit codes:
//
//	0    success
//	1    simulation or tool failure (including partial -keep-going runs)
//	130  interrupted (Ctrl-C / SIGINT; 128+2, the shell convention)
//
// Interruption is detected through the error chain: a batch stopped by
// signal.NotifyContext surfaces as a *runner.CancelError (or a bare
// context error) wrapping context.Canceled.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/metrics"
	"repro/internal/runner"
)

// ResolveCores maps a -cores flag value to an effective core count.
// 0 means "auto": use every CPU the scheduler will actually grant —
// min(NumCPU, GOMAXPROCS), never below 1. Positive values pass through
// unchanged (the engine clamps to its component count); negative
// values are an error. Shared by every command exposing -cores so
// "auto" means the same thing everywhere.
func ResolveCores(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("-cores %d: must be >= 0 (0 = auto)", n)
	}
	if n > 0 {
		return n, nil
	}
	c := runtime.NumCPU()
	if p := runtime.GOMAXPROCS(0); p < c {
		c = p
	}
	if c < 1 {
		c = 1
	}
	return c, nil
}

// ExitInterrupted is the exit status after Ctrl-C (128 + SIGINT).
const ExitInterrupted = 130

// ExitFailure is the exit status for any non-interrupt failure.
const ExitFailure = 1

// ExitCode maps an error to the process exit status. A nil error is 0;
// cancellation (a *runner.CancelError or any error wrapping
// context.Canceled) is ExitInterrupted; everything else — simulation
// failures, invariant violations, timeouts, partial KeepGoing batches —
// is ExitFailure.
func ExitCode(err error) int {
	if err == nil {
		return 0
	}
	if errors.Is(err, context.Canceled) {
		return ExitInterrupted
	}
	var ce *runner.CancelError
	if errors.As(err, &ce) && errors.Is(ce.Err, context.Canceled) {
		return ExitInterrupted
	}
	return ExitFailure
}

// Session is one command invocation's run harness. A main registers
// the flag groups it carries (ExecFlags, and BatchFlags for the suite
// commands) before flag.Parse, calls Start once, and leaves through
// Exit on every path so the profile, metrics and trace outputs are
// always complete.
type Session struct {
	// exec group
	retries      int
	timeout      time.Duration
	selfCheck    bool
	cores        int
	metricsPath  string
	metricsEvery uint64
	tracePath    string

	// batch group; batch records that it was registered, which also
	// turns on the per-job progress lines and the closing tally.
	batch      bool
	workers    int
	keepGoing  bool
	quiet      bool
	cpuProfile string
	memProfile string

	stop        context.CancelFunc
	cpuFile     *os.File
	metricsFile *os.File
	sink        *metrics.JSONLSink
	traceFile   *os.File
	tracer      *runner.JobTracer

	started             time.Time
	simulated, recalled int

	exit func(int) // os.Exit; tests substitute a recorder
}

// ExecFlags registers the execution-policy flags every runner-backed
// command carries.
func (s *Session) ExecFlags(fs *flag.FlagSet) {
	fs.IntVar(&s.retries, "retries", 0, "extra attempts for transiently failed jobs")
	fs.DurationVar(&s.timeout, "timeout", 0, "per-job wall-clock budget (e.g. 5m); 0 = none")
	fs.BoolVar(&s.selfCheck, "selfcheck", false, "enable sampled engine invariant sweeps on every job")
	fs.IntVar(&s.cores, "cores", 1, "phase-parallel shards inside each simulation (0 = auto: all host CPUs; workers x cores capped at GOMAXPROCS); output is identical at any value")
	fs.StringVar(&s.metricsPath, "metrics", "", "stream cycle-domain counter samples (JSONL) to this file")
	fs.Uint64Var(&s.metricsEvery, "metrics-every", 0, "sampling period in cycles for -metrics; 0 = default (4096)")
	fs.StringVar(&s.tracePath, "trace", "", "write a Chrome trace_event JSON timeline to this file (open in Perfetto)")
}

// BatchFlags registers the flags the suite commands add on top of
// ExecFlags: pool size, failure policy, progress and profiles.
func (s *Session) BatchFlags(fs *flag.FlagSet) {
	s.batch = true
	fs.IntVar(&s.workers, "j", 0, "simulation worker-pool size (0 = GOMAXPROCS)")
	fs.BoolVar(&s.keepGoing, "keep-going", false, "run every job even after failures; render FAILED cells and exit 1")
	fs.BoolVar(&s.quiet, "quiet", false, "suppress progress output")
	fs.StringVar(&s.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&s.memProfile, "memprofile", "", "write a heap profile to this file on exit")
}

// Start acts on the parsed flags. It installs the SIGINT context first
// — before the caller generates any kernel, so an interrupt that lands
// in trace generation still exits 130 — then resolves -cores, starts
// the CPU profile and opens the -metrics/-trace files, so a bad value
// or path fails before hours of simulation. The returned Runner
// carries every flag value, cache (which may be nil; the trace samples
// its hit/miss counters) and the event chain. On error the caller
// still leaves through Exit, which releases whatever was opened.
func (s *Session) Start(cache *runner.Cache) (context.Context, *runner.Runner, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	s.stop = stop
	s.started = time.Now()

	cores, err := ResolveCores(s.cores)
	if err != nil {
		return ctx, nil, err
	}
	if s.cpuProfile != "" {
		f, err := os.Create(s.cpuProfile)
		if err != nil {
			return ctx, nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return ctx, nil, err
		}
		s.cpuFile = f
	}

	r := &runner.Runner{
		Workers:      s.workers,
		Cache:        cache,
		KeepGoing:    s.keepGoing,
		Retries:      s.retries,
		Timeout:      s.timeout,
		SelfCheck:    s.selfCheck,
		Cores:        cores,
		MetricsEvery: s.metricsEvery,
	}
	if s.batch {
		r.Events = s.progress
	}
	if s.metricsPath != "" {
		f, err := os.Create(s.metricsPath)
		if err != nil {
			return ctx, nil, err
		}
		s.metricsFile, s.sink = f, metrics.NewJSONLSink(f)
		// Assigned only here: a nil *JSONLSink stored in the Sink
		// interface would read as "enabled" downstream.
		r.Metrics = s.sink
	}
	if s.tracePath != "" {
		f, err := os.Create(s.tracePath)
		if err != nil {
			return ctx, nil, err
		}
		s.traceFile, s.tracer = f, runner.NewJobTracer(cache)
		r.Events = s.tracer.Wrap(r.Events)
	}
	return ctx, r, nil
}

// progress is the batch commands' event sink: one stderr line per
// simulated job unless -quiet, and the counts behind the closing tally.
func (s *Session) progress(ev runner.Event) {
	if ev.Kind != runner.JobDone {
		return
	}
	if ev.Cached {
		s.recalled++
		return
	}
	s.simulated++
	if s.quiet {
		return
	}
	if ev.Err != nil {
		fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", ev.Label, ev.Err)
		return
	}
	fmt.Fprintf(os.Stderr, "ran %s (%.1fs, %d/%d done)\n",
		ev.Label, ev.Wall.Seconds(), ev.Done, ev.Done+ev.Running+ev.Queued)
}

// Exit is the one way out of a Session's process. It stops the CPU
// profile, writes the heap profile, flushes the metrics stream and
// writes the trace file — all of them, whatever err is and whichever
// of them fails — then reports err and exits with ExitCode(err): 0,
// 1 (failure, or the *runner.BatchError of a partial -keep-going run)
// or 130 (interrupt). A nil err with a failed flush exits 1.
func (s *Session) Exit(err error) {
	if !s.quiet && s.simulated+s.recalled > 0 {
		fmt.Fprintf(os.Stderr, "%d simulations, %d cache hits in %.1fs\n",
			s.simulated, s.recalled, time.Since(s.started).Seconds())
	}
	closeErr := s.close()
	if err == nil {
		err = closeErr
	} else if closeErr != nil {
		log.Print(closeErr)
	}
	if err != nil {
		log.Print(err)
	}
	exit := s.exit
	if exit == nil {
		exit = os.Exit
	}
	exit(ExitCode(err))
}

// close finishes every output Start opened and joins their errors; no
// failure stops the ones after it.
func (s *Session) close() error {
	var errs []error
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		errs = append(errs, s.cpuFile.Close())
	}
	if s.memProfile != "" {
		errs = append(errs, writeHeapProfile(s.memProfile))
	}
	if s.sink != nil {
		errs = append(errs, s.sink.Flush(), s.metricsFile.Close())
	}
	if s.tracer != nil {
		errs = append(errs, s.tracer.WriteJSON(s.traceFile), s.traceFile.Close())
	}
	if s.stop != nil {
		s.stop()
	}
	return errors.Join(errs...)
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize the steady-state live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
