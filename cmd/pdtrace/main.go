// Command pdtrace visualizes the Figure 9 dynamics: it replays one
// application's memory stream through a single DLP-managed L1D with an
// idealized (zero-latency) memory behind it and prints, after every
// sampling period, the global TDA/VTA hit counters' decision and the
// per-instruction protection distances. This is the tool to use to
// understand *why* DLP protects (or refuses to protect) a workload.
//
// Usage:
//
//	pdtrace -app CFD
//	pdtrace -app BFS -samples 30
//
// -timeout D bounds the replay's wall time; -selfcheck verifies the
// cache's DLP invariants after every printed sample, so a corrupted
// protection state is caught at the sample that introduced it.
// Exit codes: 0 success, 1 failure or exhausted -timeout, 130
// interrupted (Ctrl-C) — an interrupted replay still prints the
// samples it traced, but exits non-zero so scripts can tell a partial
// table from a complete one.
//
// Observability: -metrics FILE streams the replayed L1D's counter
// registry as JSONL, one row per sampling period (the cycle column is
// the replay's access-serial clock); -trace FILE writes a Chrome
// trace_event file with a TDA/VTA counter track per sample, viewable
// at ui.perfetto.dev.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"text/tabwriter"

	"repro/internal/addr"
	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pdtrace: ")
	app := flag.String("app", "CFD", "application abbreviation")
	maxSamples := flag.Int("samples", 20, "sampling periods to trace")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the replay (e.g. 1m); 0 = none")
	selfCheck := flag.Bool("selfcheck", false, "verify DLP invariants after every printed sample")
	metricsPath := flag.String("metrics", "", "stream the L1D counter registry (JSONL, one row per sample) to this file")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON timeline of the samples to this file (open in Perfetto)")
	flag.Parse()

	// The observability outputs are opened before the replay so a bad
	// path fails immediately, and flushed on every exit path.
	var (
		mfile *os.File
		msink *metrics.JSONLSink
		tfile *os.File
		tr    *metrics.Trace
	)
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			log.Fatal(err)
		}
		mfile = f
		msink = metrics.NewJSONLSink(f)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		tfile = f
		tr = metrics.NewTrace()
		tr.ProcessName(1, "pdtrace replay")
		tr.ThreadName(1, 1, "sampling periods")
	}
	closeObs := func() {
		if msink != nil {
			if err := msink.Flush(); err != nil {
				log.Print(err)
			}
			if err := mfile.Close(); err != nil {
				log.Print(err)
			}
			msink = nil
		}
		if tr != nil {
			if err := tr.WriteJSON(tfile); err != nil {
				log.Print(err)
			}
			if err := tfile.Close(); err != nil {
				log.Print(err)
			}
			tr = nil
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	spec, err := workloads.ByAbbr(strings.ToUpper(*app))
	if err != nil {
		log.Fatal(err)
	}
	cfg := config.Baseline()
	k := spec.Generate()

	// Collect the distinct memory PCs so the table has stable columns.
	pcs := collectPCs(k)

	delivered := 0
	l1d := core.NewL1D(cfg, config.PolicyDLP, func(*mem.Request) { delivered++ })

	// The metrics series reuses the simulator's registry machinery over
	// this one standalone cache; the label is the workload abbreviation.
	var reg *metrics.Registry
	series := strings.ToUpper(*app)
	if msink != nil {
		reg = metrics.NewRegistry()
		l1d.RegisterMetrics(reg, "l1d")
		reg.Seal()
		msink.Begin(series, reg.Names())
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 1, ' ', 0)
	fmt.Fprintf(w, "sample\tTDA hits\tVTA hits\tdecision")
	for _, pc := range pcs {
		fmt.Fprintf(w, "\tPD(insn%d)", pc)
	}
	fmt.Fprintln(w)

	var (
		now        uint64
		id         uint64
		lastSample uint64
		prevTDA    uint64
		prevVTA    uint64
	)
	send := func(line addr.Addr, pc uint32, store bool) {
		id++
		req := &mem.Request{ID: id, Addr: line, PC: pc, InsnID: addr.HashPC(pc), Store: store}
		for ctx.Err() == nil {
			now++
			l1d.Tick(now)
			out := l1d.Access(req)
			for {
				o := l1d.PopOutgoing()
				if o == nil {
					break
				}
				if !o.Store {
					l1d.OnResponse(o)
				}
			}
			if out != mem.OutcomeStall {
				return
			}
		}
	}

	// Replay warps round-robin, one memory instruction per turn,
	// mirroring internal/rdd's interleaving. Track sample boundaries via
	// the PDPT sample counter.
	pdpt := l1d.PDPT()
	blocks := k.Blocks[:1] // one SM's share is representative
	ptrs := make([]int, len(blocks[0].Warps))
	live := len(ptrs)
	for live > 0 && int(pdpt.Samples()) < *maxSamples && ctx.Err() == nil {
		live = 0
		for wi, wt := range blocks[0].Warps {
			for ; ptrs[wi] < len(wt.Instrs); ptrs[wi]++ {
				in := &wt.Instrs[ptrs[wi]]
				if in.Kind == trace.Compute {
					continue
				}
				for _, line := range in.CoalescedLines(cfg.L1D.LineSize) {
					// Record counters just before a sample closes so the
					// decision is reconstructable.
					tda, vta := pdpt.GlobalHits()
					prevTDA, prevVTA = tda, vta
					send(line, in.PC, in.Kind == trace.Store)
					if s := pdpt.Samples(); s != lastSample {
						lastSample = s
						printSample(w, s, prevTDA, prevVTA, pdpt, pcs)
						if reg != nil {
							msink.Row(series, now, reg.Sample())
						}
						if tr != nil {
							tr.Counter("global hits", 1, float64(now), map[string]any{
								"tda": prevTDA, "vta": prevVTA})
							tr.Instant(fmt.Sprintf("sample %d", s), "sample", 1, 1, float64(now), nil)
						}
						if *selfCheck {
							if err := l1d.CheckInvariants(); err != nil {
								w.Flush()
								closeObs()
								log.Fatalf("after sample %d: %v", s, err)
							}
						}
					}
				}
				ptrs[wi]++
				break
			}
			if ptrs[wi] < len(wt.Instrs) {
				live++
			}
		}
	}
	w.Flush()
	if reg != nil {
		// A closing row captures the counters where the replay stopped,
		// whether it drained or was cut short.
		msink.Row(series, now, reg.Sample())
	}
	closeObs()
	// The replay loop exits quietly on cancellation so the partial table
	// above is still printed; the exit status must not read as success.
	if err := ctx.Err(); err != nil {
		log.Print("replay stopped early: ", err)
		os.Exit(cli.ExitCode(err))
	}
	if *selfCheck {
		if err := l1d.CheckInvariants(); err != nil {
			log.Fatalf("after replay: %v", err)
		}
	}
	st := l1d.Stats()
	fmt.Printf("\nfinal: accesses=%d hits=%d bypasses=%d vta_hits=%d hit_rate=%.3f\n",
		st.L1DAccesses, st.L1DHits, st.L1DBypasses, st.VTAHits, st.L1DHitRate())
}

// printSample emits one row: the counters that drove the Fig. 9 decision
// and the resulting per-instruction PDs.
func printSample(w *tabwriter.Writer, sample, tda, vta uint64, pdpt *policy.PDPT, pcs []uint32) {
	decision := "hold"
	switch {
	case vta > tda:
		decision = "increase"
	case 2*vta < tda:
		decision = "decrease"
	}
	fmt.Fprintf(w, "%d\t%d\t%d\t%s", sample, tda, vta, decision)
	for _, pc := range pcs {
		fmt.Fprintf(w, "\t%d", pdpt.PD(addr.HashPC(pc)))
	}
	fmt.Fprintln(w)
}

// collectPCs returns the kernel's distinct memory-instruction PCs.
func collectPCs(k *trace.Kernel) []uint32 {
	seen := map[uint32]bool{}
	for _, b := range k.Blocks {
		for _, wt := range b.Warps {
			for i := range wt.Instrs {
				in := &wt.Instrs[i]
				if in.Kind != trace.Compute {
					seen[in.PC] = true
				}
			}
		}
	}
	out := make([]uint32, 0, len(seen))
	for pc := range seen {
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
