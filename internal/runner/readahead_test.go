package runner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/trace"
)

// panicStream panics in every Fill of a window at or past at, which a
// streamed run may reach on its read-ahead helper.
type panicStream struct {
	trace.Stream
	at int
}

func (s *panicStream) Fill(block, warp, start int, c *trace.Chunk) ([]trace.Instr, bool, bool) {
	if start >= s.at {
		panic("panicStream: window past the end of the test")
	}
	return s.Stream.Fill(block, warp, start, c)
}

// TestStreamedRunsJoinTheirHelper: a streamed run's read-ahead helper
// is joined however the run ends — done, cancelled, failed on a damaged
// file, out of cycles, or panicking inside a runner job that recovers
// it — so the goroutine count comes back to where it started.
func TestStreamedRunsJoinTheirHelper(t *testing.T) {
	k := streamKernel("ahead", 4, 8, 100, 2) // 300-instruction warps: five windows each
	open := func(t *testing.T, damage bool) *trace.FileStream {
		t.Helper()
		path := filepath.Join(t.TempDir(), "k.dlpstrm")
		if err := trace.WriteFile(path, trace.NewKernelStream(k), 0); err != nil {
			t.Fatal(err)
		}
		fs, err := trace.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		if damage {
			// Cut the file in the middle of its chunk data.
			if err := os.Truncate(path, 2048); err != nil {
				t.Fatal(err)
			}
		}
		return fs
	}
	cfg := config.Baseline()
	run := func(ctx context.Context, src trace.Stream, opts sim.Options) error {
		_, err := sim.RunStreamOnce(ctx, cfg, config.PolicyDLP, src, opts)
		return err
	}
	cases := []struct {
		name string
		run  func(t *testing.T) error
		want func(error) bool
	}{
		{"done", func(t *testing.T) error {
			return run(context.Background(), open(t, false), sim.Options{})
		}, func(err error) bool { return err == nil }},
		{"cancelled", func(t *testing.T) error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return run(ctx, open(t, false), sim.Options{})
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"damaged file", func(t *testing.T) error {
			return run(context.Background(), open(t, true), sim.Options{})
		}, func(err error) bool { var fe *trace.FormatError; return errors.As(err, &fe) }},
		{"cycle limit", func(t *testing.T) error {
			return run(context.Background(), open(t, false), sim.Options{MaxCycles: 3000})
		}, func(err error) bool { var ce *sim.CycleLimitError; return errors.As(err, &ce) }},
		{"recovered panic", func(t *testing.T) error {
			r := &Runner{Workers: 1}
			_, err := r.Run(context.Background(), []Job{{
				Label: "panics", Config: cfg, Policy: config.PolicyDLP,
				Stream: &panicStream{Stream: trace.NewKernelStream(k), at: 128},
			}})
			return err
		}, func(err error) bool { var jp *JobPanicError; return errors.As(err, &jp) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			if err := c.run(t); !c.want(err) {
				t.Fatalf("the run ended with %v", err)
			}
			// A joined goroutine may still be returning: give it a moment.
			deadline := time.Now().Add(2 * time.Second)
			n := runtime.NumGoroutine()
			for ; n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if n > base {
				t.Errorf("%d goroutines after the run, %d before", n, base)
			}
		})
	}
}
