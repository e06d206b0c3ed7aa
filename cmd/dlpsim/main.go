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
// N phase-parallel shards, cutting wall time on multi-core hosts; the
// printed counters are bit-identical at every value.
//
// Failure semantics: the run executes inside the shared experiment
// runner, so a panicking or wedged engine surfaces as a structured
// error instead of a crash. -timeout D bounds wall time, -retries N
// re-runs transient failures, and -selfcheck enables the engine's
// sampled invariant sweeps (results are identical either way).
// Exit codes: 0 success, 1 failure, 130 interrupted (Ctrl-C).
//
// Observability: -metrics FILE streams cycle-domain counter samples
// (JSONL) from the simulation; -trace FILE writes a Chrome trace_event
// timeline of the run, viewable at ui.perfetto.dev. Neither affects
// the simulated results. (The kernel-replay flag formerly called
// -trace is now -kernel.)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
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
	app := flag.String("app", "CFD", "application abbreviation (see -list)")
	policyName := flag.String("policy", "dlp", policy.Usage())
	sizeKB := flag.Int("size", 16, "L1D capacity in KB (16, 32 or 64)")
	list := flag.Bool("list", false, "list available applications")
	asJSON := flag.Bool("json", false, "emit the result as JSON")
	dump := flag.String("dump", "", "write the generated kernel trace to this file and exit")
	kernelFile := flag.String("kernel", "", "run a kernel from this trace file instead of -app")
	retries := flag.Int("retries", 0, "extra attempts on transient failures")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the run (e.g. 5m); 0 = none")
	selfCheck := flag.Bool("selfcheck", false, "enable sampled engine invariant sweeps")
	cores := flag.Int("cores", 1, "phase-parallel shards inside the simulation (0 = auto: all host CPUs); output is identical at any value")
	metricsPath := flag.String("metrics", "", "stream cycle-domain counter samples (JSONL) to this file")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON timeline to this file (open in Perfetto)")
	metricsEvery := flag.Uint64("metrics-every", 0, "sampling period in cycles for -metrics; 0 = default (4096)")
	streamMode := flag.Bool("stream", false, "feed the kernel lazily through the chunked stream frontend instead of materializing it")
	streamFile := flag.String("stream-file", "", "replay a chunked trace file recorded with dlptrace instead of -app")
	scale := flag.Int("scale", 1, "workload scale factor (blocks and footprint); >1 implies larger grids")
	flag.Parse()
	resolvedCores, err := cli.ResolveCores(*cores)
	if err != nil {
		log.Fatal(err)
	}
	*cores = resolvedCores
	// Catch Ctrl-C from here on, not only once the kernel exists: trace
	// generation can take seconds, and an interrupt that lands inside
	// it must still exit 130 (the run below starts cancelled) instead of
	// killing the process by signal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
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

	cfg, err := config.ByL1DSize(*sizeKB)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := policy.Parse(*policyName)
	if err != nil {
		log.Fatal(err)
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
			log.Fatal(err)
		}
		defer fs.Close()
		stream = fs
		name, class, runName = fs.Name(), "replay", fs.Name()
	case *kernelFile != "":
		f, err := os.Open(*kernelFile)
		if err != nil {
			log.Fatal(err)
		}
		kernel, err = trace.ReadKernel(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		name, class, runName = kernel.Name, "custom", kernel.Name
	case strings.Contains(*app, ","):
		// Multi-kernel grid: back-to-back registry apps as one stream.
		if !*streamMode {
			log.Fatal("a comma-separated -app list needs -stream")
		}
		abbrs := strings.Split(strings.ToUpper(*app), ",")
		subs := make([]trace.Stream, len(abbrs))
		for i, a := range abbrs {
			spec, err := workloads.ByAbbr(strings.TrimSpace(a))
			if err != nil {
				log.Fatal(err)
			}
			subs[i] = spec.Stream(*scale)
		}
		runName = strings.Join(abbrs, "+")
		stream = trace.NewMultiStream(runName, subs...)
		name, class = runName, "multi"
	default:
		spec, err := workloads.ByAbbr(strings.ToUpper(*app))
		if err != nil {
			log.Fatal(err)
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
			log.Fatal("-dump needs a materialized kernel; use dlptrace record for streams")
		}
		f, err := os.Create(*dump)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := kernel.WriteTo(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s trace to %s\n", kernel.Name, *dump)
		return
	}

	obs, err := cli.OpenObservability(*metricsPath, *tracePath, nil)
	if err != nil {
		log.Fatal(err)
	}
	fatal := func(err error) {
		obs.Close()
		log.Print(err)
		os.Exit(cli.ExitCode(err))
	}
	// Even a single run goes through the experiment runner: panics are
	// recovered into errors, the deadline and retry machinery apply, and
	// behavior matches what the same point does inside a suite.
	r := &runner.Runner{Workers: 1, Retries: *retries, Timeout: *timeout, SelfCheck: *selfCheck,
		Events: obs.Events(nil), Metrics: obs.Sink(), MetricsEvery: *metricsEvery}
	// -cores is set explicitly on the job (not via Runner.Cores), so a
	// single run uses exactly what was asked for, GOMAXPROCS cap or no.
	results, err := r.Run(ctx, []runner.Job{{
		Label:  fmt.Sprintf("%s under %s", runName, pol),
		Config: cfg,
		Policy: pol,
		Kernel: kernel,
		Stream: stream,
		Opts:   sim.Options{Cores: *cores},
	}})
	if err != nil {
		fatal(err)
	}
	if err := obs.Close(); err != nil {
		log.Fatal(err)
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
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("%s (%s, %s) on %s under %s\n", runName, name, class, cfg.Name, pol)
	fmt.Println(st)
}
