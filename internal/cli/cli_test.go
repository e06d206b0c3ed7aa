package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, 0},
		{"plain failure", errors.New("boom"), ExitFailure},
		{"wrapped failure", fmt.Errorf("suite: %w", errors.New("boom")), ExitFailure},
		{"bare canceled", context.Canceled, ExitInterrupted},
		{"wrapped canceled", fmt.Errorf("aborted: %w", context.Canceled), ExitInterrupted},
		{"cancel error", &runner.CancelError{Done: 3, Queued: 2, Total: 9, Err: context.Canceled}, ExitInterrupted},
		{"wrapped cancel error", fmt.Errorf("suite: %w",
			&runner.CancelError{Done: 0, Queued: 9, Total: 9, Err: context.Canceled}), ExitInterrupted},
		// A deadline is a failure, not an interrupt: nobody pressed ^C.
		{"deadline", context.DeadlineExceeded, ExitFailure},
		{"cancel error deadline", &runner.CancelError{Err: context.DeadlineExceeded}, ExitFailure},
		{"batch error", &runner.BatchError{Failures: []runner.JobFailure{{Index: 1, Err: errors.New("x")}}, Total: 2}, ExitFailure},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("%s: ExitCode = %d, want %d", c.name, got, c.want)
		}
	}
}

// start parses args into a fresh Session carrying the exec group (and
// the batch group when batch is set), with the exit function replaced
// by a recorder, and starts it.
func start(t *testing.T, batch bool, cache *runner.Cache, args ...string) (*Session, *runner.Runner, *int, error) {
	t.Helper()
	code := -1
	s := &Session{exit: func(c int) { code = c }}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.ExecFlags(fs)
	if batch {
		s.BatchFlags(fs)
	}
	if err := fs.Parse(args); err != nil {
		return s, nil, &code, err
	}
	_, r, err := s.Start(cache)
	return s, r, &code, err
}

// TestFlagsToRunner is the contract between the shared flags and the
// Runner the mains receive: every flag lands in exactly one field.
func TestFlagsToRunner(t *testing.T) {
	dir := t.TempDir()
	cache := runner.NewCache()
	type want struct {
		workers                  int
		keepGoing, selfCheck     bool
		timeout                  time.Duration
		metricsEvery             uint64
		metrics, events, failure bool
	}
	cases := []struct {
		name  string
		batch bool
		args  []string
		want  want
	}{
		{"exec defaults", false, nil, want{}},
		{"batch defaults", true, nil, want{events: true}},
		{"exec group", false, []string{"-timeout", "90s", "-selfcheck",
			"-metrics-every", "128", "-metrics", filepath.Join(dir, "m.jsonl"), "-trace", filepath.Join(dir, "t.json")},
			want{timeout: 90 * time.Second, selfCheck: true, metricsEvery: 128, metrics: true, events: true}},
		{"batch group", true, []string{"-j", "4", "-keep-going", "-quiet",
			"-cpuprofile", filepath.Join(dir, "cpu.prof"), "-memprofile", filepath.Join(dir, "mem.prof")},
			want{workers: 4, keepGoing: true, events: true}},
		{"batch flag on an exec-only command", false, []string{"-j", "2"}, want{failure: true}},
	}
	for _, c := range cases {
		s, r, code, err := start(t, c.batch, cache, c.args...)
		if c.want.failure {
			if err == nil {
				t.Errorf("%s: accepted", c.name)
			}
			if s.Exit(err); *code != ExitFailure {
				t.Errorf("%s: exit %d, want %d", c.name, *code, ExitFailure)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		got := want{r.Workers, r.KeepGoing, r.SelfCheck, r.Timeout,
			r.MetricsEvery, r.Metrics != nil, r.Events != nil, false}
		if got != c.want {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, c.want)
		}
		if r.Cache != cache || r.Intercept != nil {
			t.Errorf("%s: Runner must carry the given cache and no intercept", c.name)
		}
		if s.Exit(nil); *code != 0 {
			t.Errorf("%s: exit %d after a clean session", c.name, *code)
		}
	}
}

// twoJobs is a batch small enough for a unit test (two ~0.1 s runs).
func twoJobs(t *testing.T) []runner.Job {
	t.Helper()
	spec, err := workloads.ByAbbr("BP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Baseline()
	k := spec.SharedKernel(cfg.L1D.LineSize)
	return []runner.Job{
		{Label: "BP under Baseline", Config: cfg, Policy: config.PolicyBaseline, Kernel: k},
		{Label: "BP under DLP", Config: cfg, Policy: config.PolicyDLP, Kernel: k},
	}
}

// TestExitFlushesEveryOutput drives real batches through a Session's
// Runner and leaves through Exit: whatever the outcome — and even when
// writing the trace itself fails — the CPU profile is stopped and
// closed, the heap profile written, the JSONL stream flushed and
// re-parseable, and the exit status follows the shared convention.
func TestExitFlushesEveryOutput(t *testing.T) {
	jobs := twoJobs(t)
	failSecond := func(ctx context.Context, index, _ int, _ runner.Job, run runner.SimFunc) (*stats.Stats, error) {
		if index == 1 {
			return nil, errors.New("injected failure")
		}
		return run(ctx)
	}
	cases := []struct {
		name       string
		args       []string
		intercept  runner.Intercept
		breakTrace bool
		wantCode   int
	}{
		{"clean", nil, nil, false, 0},
		{"failing", nil, failSecond, false, ExitFailure},
		{"partial keep-going", []string{"-keep-going"}, failSecond, false, ExitFailure},
		// The case the old ablate got wrong: the run succeeded, writing
		// -trace fails, and the profile must still be finished first.
		{"trace write fails", nil, nil, true, ExitFailure},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := func(name string) string { return filepath.Join(dir, name) }
			args := append([]string{"-quiet", "-j", "1", "-cpuprofile", path("cpu.prof"), "-memprofile", path("mem.prof"),
				"-metrics", path("m.jsonl"), "-trace", path("t.json")}, c.args...)
			s, r, code, err := start(t, true, nil, args...)
			if err != nil {
				t.Fatal(err)
			}
			r.Intercept = c.intercept
			_, err = r.Run(context.Background(), jobs)
			if (err != nil) != (c.intercept != nil) {
				t.Fatalf("Run: %v", err)
			}
			if c.breakTrace {
				s.traceFile.Close()
			}
			s.Exit(err)
			if *code != c.wantCode {
				t.Errorf("exit %d, want %d", *code, c.wantCode)
			}

			// Stopped: the profiler is free again. Closed and complete:
			// both profile files hold data.
			if err := pprof.StartCPUProfile(io.Discard); err != nil {
				t.Errorf("CPU profile still running after Exit: %v", err)
			}
			pprof.StopCPUProfile()
			if err := s.cpuFile.Close(); err == nil {
				t.Error("CPU profile file left open")
			}
			for _, name := range []string{"cpu.prof", "mem.prof"} {
				if fi, err := os.Stat(path(name)); err != nil || fi.Size() == 0 {
					t.Errorf("%s missing or empty (%v)", name, err)
				}
			}
			mf, err := os.Open(path("m.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			defer mf.Close()
			ss, err := metrics.ReadJSONL(mf)
			if err != nil {
				t.Fatal(err)
			}
			if sr := ss.Series[jobs[0].Label]; sr == nil || len(sr.Rows) == 0 {
				t.Errorf("no sampled rows for %q in the flushed stream", jobs[0].Label)
			}
			if c.breakTrace {
				return
			}
			tf, err := os.Open(path("t.json"))
			if err != nil {
				t.Fatal(err)
			}
			defer tf.Close()
			if _, err := metrics.ReadChromeTrace(tf); err != nil {
				t.Error(err)
			}
		})
	}
}

// The three Observability tests predate the Session and keep their
// names: they pin the -metrics/-trace file handling it took over.

func TestObservabilityLifecycle(t *testing.T) {
	dir := t.TempDir()
	mPath := filepath.Join(dir, "m.jsonl")
	tPath := filepath.Join(dir, "t.json")
	s, r, code, err := start(t, false, nil, "-metrics", mPath, "-trace", tPath)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics == nil || r.Events == nil {
		t.Fatal("sink/tracer must be wired when both paths are set")
	}
	r.Metrics.Begin("s", []string{"a"})
	r.Metrics.Row("s", 64, []uint64{1})
	r.Events(runner.Event{Kind: runner.JobQueued, Index: 0, Label: "j"})
	r.Events(runner.Event{Kind: runner.JobStarted, Index: 0, Label: "j"})
	r.Events(runner.Event{Kind: runner.JobDone, Index: 0, Label: "j", Cycles: 42})
	if s.Exit(nil); *code != 0 {
		t.Fatalf("exit %d", *code)
	}

	mf, err := os.Open(mPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	ss, err := metrics.ReadJSONL(mf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss.Series["s"].Rows) != 1 {
		t.Fatalf("rows = %v", ss.Series["s"].Rows)
	}
	tf, err := os.Open(tPath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	if _, err := metrics.ReadChromeTrace(tf); err != nil {
		t.Fatal(err)
	}
}

func TestObservabilityDisabled(t *testing.T) {
	s, r, code, err := start(t, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics != nil {
		t.Fatal("Runner.Metrics must be untyped nil when -metrics is off")
	}
	if r.Events != nil {
		t.Fatal("an exec-only session without -trace has no event sink")
	}
	if s.Exit(nil); *code != 0 {
		t.Fatalf("exit %d", *code)
	}
}

func TestOpenObservabilityBadPath(t *testing.T) {
	for _, flagName := range []string{"-metrics", "-trace"} {
		s, _, code, err := start(t, false, nil, flagName, filepath.Join(t.TempDir(), "no/such/dir/out"))
		if err == nil {
			t.Fatalf("expected error for unwritable %s path", flagName)
		}
		if s.Exit(err); *code != ExitFailure {
			t.Fatalf("%s: exit %d", flagName, *code)
		}
	}
}
