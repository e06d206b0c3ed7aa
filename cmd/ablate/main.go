// Command ablate sweeps the DLP design parameters the paper fixes by
// fiat — the sampling period (200 accesses, §4.1.4), the PD field width
// (4 bits, §4.3), and the VTA associativity (= cache ways, footnote 2) —
// and reports DLP's IPC speedup over the baseline cache at each setting.
//
// The non-paper policies have their own opt-in sweeps (never part of
// "all", so the committed reference output is unchanged): ata-ways
// (aggregated-tag associativity under ATA), ccws-lifetime (CCWS-lite
// protection lifetime in accesses), and pred-dead-periods (reuse
// predictor dead threshold). dlpsim.Sweeps is the list.
//
// Sweeps execute on one worker pool with one result cache, so the
// per-app baseline runs — identical in every sweep — simulate only once
// per invocation.
//
// Usage:
//
//	ablate                      # the paper's sweeps on the default apps
//	ablate -sweep pd-bits       # one sweep
//	ablate -apps CFD,KM         # choose applications
//
// The execution flags (-j -keep-going -quiet -cpuprofile -memprofile,
// -timeout -selfcheck -metrics -metrics-every -trace),
// the progress lines and the exit codes are the shared run harness's;
// see internal/cli. With -keep-going failed points render as FAILED
// cells and every sweep that could run is still printed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"strings"

	dlpsim "repro"
	"repro/internal/cli"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ablate: ")
	var run cli.Session
	run.ExecFlags(flag.CommandLine)
	run.BatchFlags(flag.CommandLine)
	sweep := flag.String("sweep", "all", "sample-period | pd-bits | vta-ways | warp-limit | all (paper sweeps) | ata-ways | ccws-lifetime | pred-dead-periods (opt-in)")
	appsFlag := flag.String("apps", strings.Join(dlpsim.DefaultAblationApps(), ","),
		"comma-separated application abbreviations")
	flag.Parse()

	ctx, r, err := run.Start(dlpsim.NewRunCache())
	if err != nil {
		run.Exit(err)
	}
	var apps []string
	for _, a := range strings.Split(*appsFlag, ",") {
		apps = append(apps, strings.ToUpper(strings.TrimSpace(a)))
	}

	ran := false
	var partial error
	for _, sw := range dlpsim.Sweeps() {
		if *sweep != sw.Name && !(*sweep == "all" && sw.Paper) {
			continue
		}
		// A keep-going sweep returns its partial table alongside a
		// *BatchError: render the FAILED cells and move on to the next
		// sweep; the failures are reported at exit.
		ab, err := sw.Run(ctx, apps, r)
		if ab == nil {
			run.Exit(err)
		}
		partial = errors.Join(partial, err)
		fmt.Println(ab.Render())
		ran = true
	}
	if !ran {
		run.Exit(fmt.Errorf("unknown sweep %q", *sweep))
	}
	run.Exit(partial)
}
