// Command dlpsim runs one benchmark application on the simulated GPU
// under one L1D management policy and prints the resulting counters.
//
// Usage:
//
//	dlpsim -app CFD -policy dlp
//	dlpsim -app BFS -policy baseline -size 32
//	dlpsim -app SC -scale 100
//	dlpsim -app SC,BP,BFS
//	dlpsim -stream-file sc.dlpstrm -policy dlp
//	dlpsim -list
//
// A single simulation point streams: the SMs pull the workload lazily
// through the chunked stream frontend, so peak memory stays bounded by
// the per-SM chunk pools at any size, with counters bit-identical to
// the packed kernel a suite shares (see dlpsim.RunSuite). -scale N
// multiplies the grid and footprint, a comma-separated -app list runs
// the kernels back to back as one multi-kernel stream, and -stream-file
// replays a chunked trace recorded with dlptrace; a recording's size is
// fixed, so -scale above 1 with it exits 1 before anything runs.
//
// The run executes inside the shared experiment runner, so a panicking
// or wedged engine surfaces as a structured error instead of a crash.
// The execution flags (-timeout -selfcheck -metrics -metrics-every
// -trace) and the exit codes are the shared run harness's; see
// internal/cli. A failed run is not retried: the engine is
// deterministic, so it would fail the same way again.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dlpsim: ")
	var run cli.Session
	run.ExecFlags(flag.CommandLine)
	app := flag.String("app", "CFD", "application abbreviation (see -list)")
	policyName := flag.String("policy", "dlp", policy.Usage())
	sizeKB := flag.Int("size", 16, "L1D capacity in KB (16, 32 or 64)")
	list := flag.Bool("list", false, "list available applications")
	asJSON := flag.Bool("json", false, "emit the result as JSON")
	streamFile := flag.String("stream-file", "", "replay a chunked trace file recorded with dlptrace instead of -app")
	scale := flag.Int("scale", 1, "workload scale factor (blocks and footprint); >1 implies larger grids")
	flag.Parse()
	if *scale < 1 {
		log.Fatalf("-scale %d: must be >= 1", *scale)
	}
	if *scale > 1 && *streamFile != "" {
		log.Fatalf("-scale %d: a -stream-file recording has a fixed size", *scale)
	}

	if *list {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "abbr\tclass\tsuite\tname\tinput")
		for _, s := range workloads.All() {
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", s.Abbr, s.Class, s.Suite, s.Name, s.Input)
		}
		w.Flush()
		return
	}

	// Started before the kernel exists: trace generation can take
	// seconds, and an interrupt that lands inside it must still exit 130
	// (the run below starts cancelled) instead of killing the process by
	// signal.
	ctx, r, err := run.Start(nil)
	if err != nil {
		run.Exit(err)
	}
	cfg, err := config.ByL1DSize(*sizeKB)
	if err != nil {
		run.Exit(err)
	}
	pol, err := policy.Parse(*policyName)
	if err != nil {
		run.Exit(err)
	}

	var stream trace.Stream
	name, class, runName := "", "", ""
	switch {
	case *streamFile != "":
		fs, err := trace.Open(*streamFile)
		if err != nil {
			run.Exit(err)
		}
		stream = fs // read-only; held until Exit
		name, class, runName = fs.Name(), "replay", fs.Name()
	case strings.Contains(*app, ","):
		// Multi-kernel grid: back-to-back registry apps as one stream.
		abbrs := strings.Split(strings.ToUpper(*app), ",")
		subs := make([]trace.Stream, len(abbrs))
		for i, a := range abbrs {
			spec, err := workloads.ByAbbr(strings.TrimSpace(a))
			if err != nil {
				run.Exit(err)
			}
			subs[i] = spec.Stream(*scale)
		}
		runName = strings.Join(abbrs, "+")
		stream = trace.NewMultiStream(runName, subs...)
		name, class = runName, "multi"
	default:
		spec, err := workloads.ByAbbr(strings.ToUpper(*app))
		if err != nil {
			run.Exit(err)
		}
		stream = spec.Stream(*scale)
		name, class, runName = spec.Name, spec.Class.String(), spec.Abbr
	}

	// Even a single run goes through the experiment runner: panics are
	// recovered into errors, the -timeout deadline applies, and
	// behavior matches what the same point does inside a suite.
	results, err := r.Run(ctx, []runner.Job{{
		Label:  fmt.Sprintf("%s under %s", runName, pol),
		Config: cfg,
		Policy: pol,
		Stream: stream,
	}})
	if err != nil {
		run.Exit(err)
	}
	st := results[0].Stats
	if *asJSON {
		out := struct {
			App      string       `json:"app"`
			Class    string       `json:"class"`
			Config   string       `json:"config"`
			Policy   string       `json:"policy"`
			IPC      float64      `json:"ipc"`
			HitRate  float64      `json:"l1d_hit_rate"`
			Counters *stats.Stats `json:"counters"`
		}{runName, class, cfg.Name, pol.String(), st.IPC(), st.L1DHitRate(), st}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		run.Exit(enc.Encode(out))
	}
	fmt.Printf("%s (%s, %s) on %s under %s\n", runName, name, class, cfg.Name, pol)
	fmt.Println(st)
	run.Exit(nil)
}
