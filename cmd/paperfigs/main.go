// Command paperfigs regenerates every table and figure of the paper's
// evaluation: Table 2, the workload analysis of Figs. 3, 4, 6 and 7
// (reuse-distance distributions, LRU reuse miss rates and memory-access
// ratios, replayed from the traces without simulating), the Fig. 5
// associativity study, the §4.3 overhead model, and Figs. 10–13 (the
// policy evaluation).
//
// Simulations run on a parallel worker pool behind a content-addressed
// result cache: table output is byte-identical at any -j, and points
// shared between experiments (e.g. the 16KB and 32KB baselines of
// Figs. 5 and 10) simulate only once. With -cache DIR results persist
// on disk, so re-running regenerates everything without simulating.
//
// Usage:
//
//	paperfigs                 # everything
//	paperfigs -exp fig10      # one experiment
//	paperfigs -exp fig3,fig4,fig6,fig7  # the workload analysis
//	paperfigs -exp fig7 -apps CFD,KM    # per-instruction RDD of CFD and KM
//	paperfigs -cache .figcache  # persist results across runs
//
// The execution flags (-j -keep-going -quiet -cpuprofile -memprofile,
// -timeout -selfcheck -metrics -metrics-every -trace),
// the progress lines and the exit codes are the shared run harness's;
// see internal/cli. With -keep-going failed points render as FAILED
// cells and the speedup summaries are left out.
//
// -apps BP,HS names the simulation suites' applications, and Fig. 7's
// (labels as in Table 2): the suites run on that subset, for quick looks
// and CI smokes, and Fig. 7 prints one per-instruction RDD table per
// application (BFS, as in the paper, without -apps). Figs. 3, 4 and 6
// always cover the whole registry; the committed reference outputs use
// the full set.
//
// -stream feeds the suites through the lazy chunked stream frontend:
// every table stays byte-identical while suite startup skips kernel
// materialization. -scale N multiplies each application's grid and
// footprint (tables then diverge from the committed references by
// design); at large scales pair it with -stream so memory stays
// bounded by the per-SM chunk pools.
//
// Experiment ids: table2, overhead, fig3, fig4, fig5, fig6, fig7,
// fig10, fig11a, fig11b, fig12a, fig12b, fig13; an unknown id, or a
// -format other than text or csv, exits 1 before anything is printed.
// The extra id "policies" — a cross-policy comparison including the
// schemes beyond the paper's four (ATA, CCWS-lite, ReusePredictor) — is
// opt-in only: it is not part of "all", so the committed reference
// outputs are unchanged by the registry growing. The order and content
// of what is printed live in dlpsim.WritePaperFigs, which the drift
// test shares.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	dlpsim "repro"
	"repro/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperfigs: ")
	var run cli.Session
	run.ExecFlags(flag.CommandLine)
	run.BatchFlags(flag.CommandLine)
	exp := flag.String("exp", "all", "comma-separated experiment ids (default: all)")
	format := flag.String("format", "text", "text | csv")
	cacheDir := flag.String("cache", "", "persist simulation results under this directory")
	appsFlag := flag.String("apps", "", "comma-separated applications of the simulation suites (default: all 18) and of Fig. 7 (default: BFS)")
	stream := flag.Bool("stream", false, "feed workloads through the lazy chunked stream frontend (bit-identical tables, lower startup memory)")
	scale := flag.Int("scale", 1, "workload scale factor for the simulation suites; >1 diverges from the committed reference outputs")
	flag.Parse()
	if *scale < 1 {
		log.Fatalf("-scale %d: must be >= 1", *scale)
	}
	csv := strings.EqualFold(*format, "csv")
	if !csv && !strings.EqualFold(*format, "text") {
		run.Exit(fmt.Errorf("-format %q: want text or csv", *format))
	}

	// One cache and one runner are shared by every suite in this
	// invocation, so overlapping (config, policy, kernel) points — the
	// baseline and 32KB runs appear in both Fig. 5 and Fig. 10 — are
	// simulated once and recalled afterwards.
	cache := dlpsim.NewRunCache()
	if *cacheDir != "" {
		var err error
		if cache, err = dlpsim.OpenRunCache(*cacheDir); err != nil {
			log.Fatal(err)
		}
	}
	ctx, r, err := run.Start(cache)
	if err != nil {
		run.Exit(err)
	}
	opts := &dlpsim.SuiteOptions{Runner: r, Stream: *stream, Scale: *scale}
	if *appsFlag != "" {
		for _, abbr := range strings.Split(*appsFlag, ",") {
			spec, err := dlpsim.WorkloadByAbbr(strings.TrimSpace(abbr))
			if err != nil {
				run.Exit(err)
			}
			opts.Apps = append(opts.Apps, spec)
		}
	}
	run.Exit(dlpsim.WritePaperFigs(os.Stdout, *exp, csv, opts.Apps,
		func(schemes []dlpsim.Scheme) (*dlpsim.SuiteResult, error) {
			return dlpsim.RunSuite(ctx, schemes, opts)
		}))
}
