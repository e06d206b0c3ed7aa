// Command dlpsim runs one benchmark application on the simulated GPU
// under one L1D management policy and prints the resulting counters.
//
// Usage:
//
//	dlpsim -app CFD -policy dlp
//	dlpsim -app BFS -policy baseline -size 32
//	dlpsim -app HG -cores 8
//	dlpsim -app SC -stream -scale 100
//	dlpsim -app SC,BP,BFS -stream
//	dlpsim -stream-file sc.dlpstrm -policy dlp
//	dlpsim -list
//
// -stream feeds the workload to the SMs lazily through the chunked
// stream frontend instead of materializing the whole trace up front;
// counters are bit-identical to the eager path while peak memory stays
// bounded by the chunk pool. -scale N multiplies the grid and footprint
// (use with -stream for scales that would not fit materialized), a
// comma-separated -app list runs the kernels back to back as one
// multi-kernel stream, and -stream-file replays a chunked trace
// recorded with dlptrace.
//
// -cores N ticks the SMs and L2 partitions of the single simulation on
// exactly N phase-parallel shards (no GOMAXPROCS cap: there is one job),
// cutting wall time on multi-core hosts; the printed counters are
// bit-identical at every value.
//
// The run executes inside the shared experiment runner, so a panicking
// or wedged engine surfaces as a structured error instead of a crash.
// The execution flags (-retries -timeout -selfcheck -cores -metrics
// -metrics-every -trace) and the exit codes are the shared run
// harness's; see internal/cli. (The kernel-replay flag formerly called
// -trace is now -kernel.)
package main

import (
	"encoding/json"
	"errors"
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
	"repro/internal/sim"
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
	dump := flag.String("dump", "", "write the generated kernel trace to this file and exit")
	kernelFile := flag.String("kernel", "", "run a kernel from this trace file instead of -app")
	streamMode := flag.Bool("stream", false, "feed the kernel lazily through the chunked stream frontend instead of materializing it")
	streamFile := flag.String("stream-file", "", "replay a chunked trace file recorded with dlptrace instead of -app")
	scale := flag.Int("scale", 1, "workload scale factor (blocks and footprint); >1 implies larger grids")
	flag.Parse()
	if *scale < 1 {
		log.Fatalf("-scale %d: must be >= 1", *scale)
	}
	if *streamFile != "" {
		*streamMode = true
		if *kernelFile != "" {
			log.Fatal("-stream-file and -kernel are mutually exclusive")
		}
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

	var (
		kernel *trace.Kernel
		stream trace.Stream
	)
	name, class, runName := "", "", ""
	switch {
	case *streamFile != "":
		fs, err := trace.Open(*streamFile)
		if err != nil {
			run.Exit(err)
		}
		stream = fs // read-only; held until Exit
		name, class, runName = fs.Name(), "replay", fs.Name()
	case *kernelFile != "":
		f, err := os.Open(*kernelFile)
		if err != nil {
			run.Exit(err)
		}
		kernel, err = trace.ReadKernel(f)
		f.Close()
		if err != nil {
			run.Exit(err)
		}
		name, class, runName = kernel.Name, "custom", kernel.Name
	case strings.Contains(*app, ","):
		// Multi-kernel grid: back-to-back registry apps as one stream.
		if !*streamMode {
			run.Exit(errors.New("a comma-separated -app list needs -stream"))
		}
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
		if *streamMode {
			stream = spec.Stream(*scale)
		} else if *scale > 1 {
			kernel = spec.ScaledKernel(*scale)
		} else {
			kernel = spec.Generate()
		}
		name, class = spec.Name, spec.Class.String()
		runName = spec.Abbr
	}

	if *dump != "" {
		if kernel == nil {
			run.Exit(errors.New("-dump needs a materialized kernel; use dlptrace record for streams"))
		}
		f, err := os.Create(*dump)
		if err != nil {
			run.Exit(err)
		}
		if _, err := kernel.WriteTo(f); err != nil {
			run.Exit(err)
		}
		if err := f.Close(); err != nil {
			run.Exit(err)
		}
		fmt.Printf("wrote %s trace to %s\n", kernel.Name, *dump)
		run.Exit(nil)
	}

	// Even a single run goes through the experiment runner: panics are
	// recovered into errors, the deadline and retry machinery apply, and
	// behavior matches what the same point does inside a suite. -cores is
	// set on the job, not left to Runner.Cores, so a single run uses
	// exactly what was asked for, GOMAXPROCS cap or no.
	results, err := r.Run(ctx, []runner.Job{{
		Label:  fmt.Sprintf("%s under %s", runName, pol),
		Config: cfg,
		Policy: pol,
		Kernel: kernel,
		Stream: stream,
		Opts:   sim.Options{Cores: r.Cores},
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
