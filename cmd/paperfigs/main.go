// Command paperfigs regenerates every table and figure of the paper's
// evaluation: Table 2, the workload analysis of Figs. 3, 4, 6 and 7
// (reuse-distance distributions, LRU reuse miss rates and memory-access
// ratios, replayed from the traces without simulating), the Fig. 9
// protection-distance dynamics (one application's stream replayed
// through a single DLP L1D: per sampling period, the global TDA/VTA
// hits, the branch taken and each instruction's PD), the Fig. 5
// associativity study, the §4.3 overhead model, Figs. 10–13 (the
// policy evaluation) and, last, the paper scorecard: every claim of the
// paper's evaluation the reproduction checks, with the paper's value,
// the measured cell, their ratio and a verdict (holds or diverges),
// read from the Fig. 5 and Fig. 10–13 suites without simulating more.
// It also prints the ablation sweeps over the
// design constants the paper fixes by fiat: the sampling period (200
// accesses, §4.1.4), the PD field width (4 bits, §4.3), the VTA
// associativity (= cache ways, footnote 2) and a warp throttle on top of
// DLP, each as DLP's IPC speedup over the baseline cache at every
// setting.
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
//	paperfigs -exp scorecard  # the paper's claims, paper vs measured
//	paperfigs -exp fig3,fig4,fig6,fig7  # the workload analysis
//	paperfigs -exp fig7 -apps CFD,KM    # per-instruction RDD of CFD and KM
//	paperfigs -exp fig9 -apps BFS       # BFS's PD dynamics
//	paperfigs -cache .figcache  # persist results across runs
//	paperfigs -exp ablations  # the paper's design-parameter sweeps
//	paperfigs -exp pd-bits -apps CFD,BP  # one sweep on two applications
//
// The execution flags (-j -keep-going -quiet -cpuprofile -memprofile,
// -timeout -selfcheck -metrics -metrics-every -trace),
// the progress lines and the exit codes are the shared run harness's;
// see internal/cli. With -keep-going failed points render as FAILED
// cells and the speedup summaries and the scorecard are left out.
//
// -apps BP,HS names the applications of the simulation suites, of
// Figs. 7 and 9 and of the sweeps (labels as in Table 2): the suites run
// on that subset, for quick looks and tests, Figs. 7 and 9 print one
// table per application, and the sweeps tabulate those applications.
// Without -apps the suites run all 18, Fig. 7 is BFS's, as in the paper,
// Fig. 9 is CFD's, and the sweeps run CFD, PVR, SRK and KM
// (dlpsim.DefaultAblationApps). Figs. 3, 4 and 6 always cover the whole
// registry; the committed reference outputs use the defaults.
//
// Experiment ids: table2, overhead, fig3, fig4, fig5, fig6, fig7, fig9,
// fig10, fig11a, fig11b, fig12a, fig12b, fig13, scorecard (together
// "all"; the scorecard is printed only when its suites completed over
// the whole registry, and never under -apps); an unknown id or
// application, or a -format other than text or csv, exits 1 before
// anything is printed. The other ids are opt-in only, never
// part of "all", so the committed paperfigs_output.txt is unchanged by
// the registry growing:
//
//   - policies: a cross-policy comparison including the schemes beyond
//     the paper's four (ATA, CCWS-lite, ReusePredictor);
//   - sample-period, pd-bits, vta-ways, warp-limit: the paper's sweeps,
//     together "ablations" (the committed ablate_output.txt);
//   - ata-ways, ccws-lifetime, pred-dead-periods: the non-paper
//     policies' sweeps (aggregated-tag associativity under ATA,
//     CCWS-lite protection lifetime in accesses, reuse predictor dead
//     threshold).
//
// A sweep has no CSV form: a sweep id under -format csv exits 1 before
// anything is printed. Every sweep is a suite run (dlpsim.Sweep.Schemes)
// on the shared runner, so the per-application baselines, identical in
// every sweep, simulate once per invocation. The order and content of
// what is printed live in dlpsim.WritePaperFigs, which the drift test
// shares.
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
	appsFlag := flag.String("apps", "", "comma-separated applications of the simulation suites (default: all 18), of Figs. 7 (default: BFS) and 9 (default: CFD) and of the sweeps (default: "+strings.Join(dlpsim.DefaultAblationApps(), ",")+")")
	flag.Parse()
	csv := strings.EqualFold(*format, "csv")
	if !csv && !strings.EqualFold(*format, "text") {
		run.Exit(fmt.Errorf("-format %q: want text or csv", *format))
	}

	// One cache and one runner are shared by every suite in this
	// invocation, so overlapping (config, policy, kernel) points — the
	// baseline and 32KB runs appear in both Fig. 5 and Fig. 10, the
	// baseline in every sweep — are simulated once and recalled
	// afterwards.
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
	var apps []string
	if *appsFlag != "" {
		apps = strings.Split(*appsFlag, ",")
	}
	run.Exit(dlpsim.WritePaperFigs(os.Stdout, *exp, csv, apps,
		func(apps []dlpsim.Workload, schemes []dlpsim.Scheme) (*dlpsim.SuiteResult, error) {
			return dlpsim.RunSuite(ctx, r, apps, schemes)
		}))
}
