// Command conform replays the committed conformance corpus and fails
// on any divergence from the recorded results.
//
// Each case under -dir is a directory holding config.json (what to
// simulate: policy, geometry overlay, workload, fast-forward-off and
// streamed variants) and expected_stats.json (the normalized
// counters the reference run must reproduce, byte for byte). The tool
// re-simulates every variant of every case; a case passes only when
// all variants agree with each other AND with the committed
// expectation.
//
// Usage:
//
//	conform                         run the whole corpus
//	conform -run 'dlp-*'            run matching cases
//	conform -list                   list cases without simulating
//	conform -update -run new-case   (re)record expected_stats.json
//	conform -j 8                    case-level parallelism
//
// Outcomes per case: ok, DRIFT (engine result changed; prints a
// unified diff against the expectation), VARIANT-MISMATCH (a
// fast-forward-off or streamed variant diverged from the reference — a
// determinism bug; prints the cross-variant diff), SIM-FAILED (panic,
// invariant violation or deadline inside a variant),
// CORRUPT-EXPECTED (the committed expectation file is damaged — fix
// the corpus, the engine is not implicated), BAD-CASE (config.json
// does not resolve to a runnable point). Exit codes: 0 all passed,
// 1 any failure, 130 interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/conform"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("conform: ")
	dir := flag.String("dir", "testdata/conform", "corpus root directory")
	run := flag.String("run", "", "only run cases whose name matches this glob")
	list := flag.Bool("list", false, "list matching cases and exit")
	update := flag.Bool("update", false, "rewrite expected_stats.json from the current engine")
	jobs := flag.Int("j", 8, "cases simulated in parallel")
	timeout := flag.Duration("timeout", 2*time.Minute, "wall-clock budget per variant; 0 = none")
	quiet := flag.Bool("q", false, "only print failing cases and the summary")
	flag.Parse()
	if *jobs < 1 {
		log.Fatalf("-j %d: must be >= 1", *jobs)
	}

	cases, err := conform.Discover(*dir, *run)
	if err != nil {
		log.Fatal(err)
	}
	if len(cases) == 0 {
		log.Fatalf("no cases under %s match %q", *dir, *run)
	}

	if *list {
		for _, c := range cases {
			desc := c.Spec.Description
			fmt.Printf("%-40s %s\n", c.Name, desc)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// One runner for the whole corpus, -j slots wide: each slot runs its
	// cases' variants on the machine its last variant left, whatever that
	// one's config and policy, so the replay also checks that a reset
	// machine equals a new one. -j 1 replays every case on one machine.
	rc := conform.RunConfig{Runner: conform.NewRunner(*jobs, *timeout), Update: *update}

	// Run cases in parallel, but print results in corpus order so the
	// report is stable at any -j.
	results := make([]*conform.Result, len(cases))
	sem := make(chan struct{}, *jobs)
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func(i int, c *conform.Case) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = c.Run(ctx, rc)
		}(i, c)
	}
	wg.Wait()

	failed := 0
	for _, res := range results {
		bad := res.Outcome.Failed()
		if bad {
			failed++
		}
		if *quiet && !bad {
			continue
		}
		line := fmt.Sprintf("%-40s %-18s", res.Case.Name, res.Outcome)
		if !bad {
			line += fmt.Sprintf("%9d cycles %8s", res.Cycles, res.Wall.Round(time.Millisecond))
		}
		fmt.Println(line)
		if res.Variant != "" {
			fmt.Printf("  variant: %s\n", res.Variant)
		}
		if res.Err != nil {
			fmt.Printf("  %v\n", res.Err)
		}
		if res.Diff != "" {
			fmt.Print(indent(res.Diff))
		}
	}
	fmt.Printf("%d cases, %d failed\n", len(cases), failed)

	if failed > 0 {
		if err := ctx.Err(); err != nil {
			os.Exit(cli.ExitCode(err))
		}
		os.Exit(cli.ExitFailure)
	}
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out += "  " + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}
