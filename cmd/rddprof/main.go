// Command rddprof replays benchmark memory traces through the paper's
// reuse-distance profiler and prints the Figure 3 / 6 / 7 data: per-
// application RD distributions, memory-access ratios with CS/CI
// classification, and per-instruction RDDs.
//
// Usage:
//
//	rddprof                  # Fig. 3 RDDs + Fig. 6 ratios for all apps
//	rddprof -app BFS         # Fig. 7 per-instruction RDD for one app
//	rddprof -size 32         # profile against the 32KB geometry
//	rddprof -cores 8         # stripe the per-SM replays over 8 goroutines
//
// -cores parallelizes each profile across the 16 simulated SMs (every
// SM's cache view is independent, and the shard counters fold by
// addition), so the printed tables are identical at any value.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"text/tabwriter"

	"repro/internal/config"
	"repro/internal/rdd"
	"repro/internal/workloads"
)

// resolveCores maps a -cores flag value to an effective goroutine count.
// 0 means "auto": use every CPU the scheduler will actually grant —
// min(NumCPU, GOMAXPROCS), never below 1. Positive values pass through
// unchanged; negative values are an error.
func resolveCores(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("-cores %d: must be >= 0 (0 = auto)", n)
	}
	if n > 0 {
		return n, nil
	}
	return max(min(runtime.NumCPU(), runtime.GOMAXPROCS(0)), 1), nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rddprof: ")
	app := flag.String("app", "", "profile a single application's per-PC RDD (Fig. 7)")
	sizeKB := flag.Int("size", 16, "L1D capacity in KB (16, 32 or 64)")
	cores := flag.Int("cores", 1, "goroutines per profile (0 = auto: all host CPUs; per-SM replays run in parallel); output is identical at any value")
	flag.Parse()
	resolvedCores, err := resolveCores(*cores)
	if err != nil {
		log.Fatal(err)
	}
	*cores = resolvedCores

	cfg, err := config.ByL1DSize(*sizeKB)
	if err != nil {
		log.Fatal(err)
	}

	if *app != "" {
		spec, err := workloads.ByAbbr(*app)
		if err != nil {
			log.Fatal(err)
		}
		printPerPC(spec, cfg, *cores)
		return
	}
	printAll(cfg, *cores)
}

func printAll(cfg *config.Config, cores int) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "app\tclass\tratio\t%s\t%s\t%s\t%s\treuse miss@16K\t@32K\t@64K\n",
		rdd.BucketLabels[0], rdd.BucketLabels[1], rdd.BucketLabels[2], rdd.BucketLabels[3])
	for _, spec := range workloads.All() {
		// The shared kernel's memoized coalescing feeds the replay's
		// zero-allocation scratch path.
		k := spec.SharedKernel(cfg.L1D.LineSize)
		sum := k.Summarize(cfg.L1D.LineSize)
		prof := rdd.ProfileKernelCores(k, cfg.NumSMs, cfg.L1D, cores)
		fr := prof.GlobalFractions()
		g16 := config.Baseline().L1D
		g32 := config.L1D32KB().L1D
		g64 := config.L1D64KB().L1D
		fmt.Fprintf(w, "%s\t%s\t%.3f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\n",
			spec.Abbr, spec.Class, sum.MemoryAccessRatio()*100,
			fr[0]*100, fr[1]*100, fr[2]*100, fr[3]*100,
			rdd.ReuseMissRateCores(k, cfg.NumSMs, g16, cores)*100,
			rdd.ReuseMissRateCores(k, cfg.NumSMs, g32, cores)*100,
			rdd.ReuseMissRateCores(k, cfg.NumSMs, g64, cores)*100)
	}
	w.Flush()
}

func printPerPC(spec workloads.Spec, cfg *config.Config, cores int) {
	k := spec.SharedKernel(cfg.L1D.LineSize)
	prof := rdd.ProfileKernelCores(k, cfg.NumSMs, cfg.L1D, cores)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "%s per-instruction RDD (Fig. 7 style)\n", spec.Abbr)
	fmt.Fprintf(w, "insn\t%s\t%s\t%s\t%s\treuses\n",
		rdd.BucketLabels[0], rdd.BucketLabels[1], rdd.BucketLabels[2], rdd.BucketLabels[3])
	for _, pc := range prof.PCs() {
		fr := prof.PCFractions(pc)
		fmt.Fprintf(w, "%d\t%.1f%%\t%.1f%%\t%.1f%%\t%.1f%%\t%d\n",
			pc, fr[0]*100, fr[1]*100, fr[2]*100, fr[3]*100, prof.PerPC[pc].Total())
	}
	w.Flush()
}
