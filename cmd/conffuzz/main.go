// Command conffuzz fuzzes the simulator differentially from one seed.
//
// Each iteration generates a random simulation point — small cache
// geometry, policy knobs, and a synthetic access pattern — and runs it
// as a reference engine plus, on about half the points each, one with
// cycle fast-forwarding disabled and one fed by the streamed frontend,
// all under the engine's sampled invariant sweeps and a per-variant
// wall-clock deadline. Divergent
// counters, invariant violations, panics, and hangs are findings; a
// slice of iterations also injects one degenerate config field and
// verifies validation rejects it with a typed error instead of
// panicking.
//
// Findings are shrunk (workload dimensions bisected to their floors,
// config knobs walked back to baseline) and written as conformance
// cases under -out, where `conform -run 'fuzz-*'` replays them.
//
// Usage:
//
//	conffuzz -seed 1 -n 200                      quick smoke
//	conffuzz -seed 7 -n 10000 -timeout 30s       campaign
//	conffuzz -policies dlp,ccws -max-findings 1  focused hunt
//
// Exit codes: 0 no findings, 1 findings (or tool failure), 130
// interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/confuzz"
	"repro/internal/policy"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("conffuzz: ")
	seed := flag.Uint64("seed", 1, "campaign seed; same seed, same campaign")
	n := flag.Int("n", 200, "iterations")
	timeout := flag.Duration("timeout", 30*time.Second, "per-variant wall-clock deadline (the hang detector)")
	maxCycles := flag.Uint64("max-cycles", 20_000_000, "per-variant simulated-cycle bound")
	degeneratePct := flag.Int("degenerate-pct", 10, "percent of iterations that inject a degenerate config field")
	shrinkBudget := flag.Int("shrink-budget", 64, "differential evaluations spent shrinking each finding; -1 disables")
	maxFindings := flag.Int("max-findings", 0, "stop after this many findings; 0 = run all iterations")
	policies := flag.String("policies", "", "comma-separated policies to fuzz (default: all registered)")
	out := flag.String("out", "testdata/conform", "directory for shrunk reproducer cases")
	quiet := flag.Bool("q", false, "suppress per-finding progress lines")
	flag.Parse()

	opts := confuzz.Options{
		Seed:          *seed,
		Iterations:    *n,
		Timeout:       *timeout,
		MaxCycles:     *maxCycles,
		DegeneratePct: *degeneratePct,
		ShrinkBudget:  *shrinkBudget,
		MaxFindings:   *maxFindings,
	}
	if *shrinkBudget < 0 {
		opts.ShrinkBudget = -1 // normalized to "disabled" by withDefaults
	}
	if *policies != "" {
		for _, s := range strings.Split(*policies, ",") {
			p, err := policy.Parse(s)
			if err != nil {
				log.Fatal(err)
			}
			opts.Policies = append(opts.Policies, p)
		}
	}
	if !*quiet {
		opts.Log = func(line string) { log.Print(line) }
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	camp, err := confuzz.Run(ctx, opts)
	elapsed := time.Since(start).Round(time.Millisecond)

	for _, fd := range camp.Findings {
		dir, werr := confuzz.WriteReproducer(*out, fd)
		if werr != nil {
			log.Printf("finding (iter %d): could not write reproducer: %v", fd.Iteration, werr)
			continue
		}
		fmt.Printf("FINDING iter=%d class=%s variant=%s seed=%#x\n  %s\n  reproducer: %s\n",
			fd.Iteration, fd.Class, fd.Variant, fd.Seed, firstLine(fd.Detail), dir)
	}
	fmt.Printf("%d iterations (%d degenerate rejected, %d too slow for budget), %d evaluations, %d findings in %s\n",
		camp.Iterations, camp.Rejected, camp.Slow, camp.Evals, len(camp.Findings), elapsed)

	if err != nil {
		log.Print(err)
		os.Exit(cli.ExitCode(err))
	}
	if len(camp.Findings) > 0 {
		os.Exit(cli.ExitFailure)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
