// Command benchgate compares a fresh performance measurement against
// the committed baseline and fails (exit 1) when the headline number —
// the serial suite wall time recorded as suite_wall_seconds — regresses
// beyond the allowed percentage. It is the CI benchmark-regression
// gate: the smoke step runs one BenchmarkSuitePaperWall pass, distills
// it with cmd/benchjson, and hands both documents here.
//
// Wall time only compares meaningfully within one machine class, so
// the preferred mode is the per-host baseline ledger: -baselines DIR
// names a directory of BENCH_<fingerprint>.json documents (recorded by
// `make bench` via benchjson), benchgate picks the entry whose
// fingerprint ({num_cpu, gomaxprocs, goarch}) matches the gating host,
// and the wall gate is then enforced unconditionally — same machine
// class by construction, nothing to warn-skip. Only when the ledger
// has no entry for this class does the gate fall back to the flat
// -baseline document and the old behavior: the wall gate runs when
// that document's fingerprint matches and is skipped with a warning
// otherwise. The allocs/op columns are deterministic per binary, so
// they gate on every host in every mode.
//
// Individual micro-benchmark ns/op are printed side by side for the
// log but never gated: at smoke iteration counts (and across
// heterogeneous CI machines) their noise would make a hard threshold
// flaky, whereas a full-suite wall pass integrates enough work to make
// >15% a real signal.
//
// The multi-core scaling curve (scaling, derived from the
// BenchmarkEngineScaling/cores=N sub-benchmarks) is gated wherever a
// document carries one: speedup must not collapse as cores are added,
// and on hosts with at least as many CPUs as the curve's top point the
// top speedup must reach -min-scaling. Both checks judge a curve only
// as far as its recording host could actually parallelize, so a
// single-CPU machine records an honest flat curve without failing.
//
// Usage:
//
//	benchgate -baselines . -fresh /tmp/bench_fresh.json -max-regress-pct 15
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"

	"repro/internal/benchfmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	basePath := flag.String("baseline", "BENCH_amd64-1c1p.json", "committed baseline document (fallback when -baselines has no entry for this host)")
	ledgerDir := flag.String("baselines", "", "per-host baseline ledger directory (BENCH_<fingerprint>.json files)")
	freshPath := flag.String("fresh", "", "fresh measurement to gate (required)")
	maxPct := flag.Float64("max-regress-pct", 15, "maximum allowed suite-wall regression in percent")
	minScaling := flag.Float64("min-scaling", 3, "required top-point speedup of any recorded scaling curve (enforced only on hosts with enough CPUs)")
	flag.Parse()
	if *freshPath == "" {
		log.Fatal("-fresh is required")
	}

	fresh, err := benchfmt.ReadFile(*freshPath)
	if err != nil {
		log.Fatal(err)
	}
	// The fresh document's own fingerprint stands in for "this host":
	// benchjson stamps it at measurement time on the same machine that
	// is now running the gate.
	freshHost := fresh.Host
	if freshHost == nil {
		freshHost = benchfmt.CurrentHost()
	}

	// With a ledger, the entry matching this host class is the
	// baseline, and the wall gate is unconditional — same class by
	// construction, so there is nothing to warn-skip. The flat
	// -baseline document is only consulted when this class has no
	// committed entry yet.
	var base *benchfmt.Baseline
	hostGated := false
	if *ledgerDir != "" {
		b, path, err := benchfmt.FindBaseline(*ledgerDir, freshHost)
		switch {
		case err == nil:
			base, hostGated = b, true
			fmt.Printf("gating against ledger entry %s (%s)\n", path, freshHost)
		case errors.Is(err, fs.ErrNotExist):
			fmt.Printf("benchgate: no ledger entry for this host class (%s); "+
				"falling back to %s — run `make bench` and commit %s to hard-gate here\n",
				freshHost, *basePath, path)
		default:
			log.Fatal(err)
		}
	}
	if base == nil {
		base, err = benchfmt.ReadFile(*basePath)
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("suite wall: baseline %.1fs, fresh %.1fs (%+.1f%%)\n",
		base.SuiteWallSeconds, fresh.SuiteWallSeconds,
		benchfmt.RegressPct(base.SuiteWallSeconds, fresh.SuiteWallSeconds))
	baseByName := make(map[string]benchfmt.Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseByName[r.Name] = r
	}
	for _, f := range fresh.Benchmarks {
		b, ok := baseByName[f.Name]
		if !ok {
			fmt.Printf("%-40s fresh only: %.0f ns/op\n", f.Name, f.NsPerOp)
			continue
		}
		fmt.Printf("%-40s %.0f -> %.0f ns/op (%+.1f%%, informational)\n",
			f.Name, b.NsPerOp, f.NsPerOp, benchfmt.RegressPct(b.NsPerOp, f.NsPerOp))
	}

	if err := benchfmt.CheckAllocs(base, fresh); err != nil {
		log.Fatal(err)
	}

	// The scaling curve gates wherever one is recorded: the committed
	// baseline's curve testifies about its own recording host, so it is
	// checked even when the wall gate below has to warn-skip.
	for _, doc := range []struct {
		label string
		b     *benchfmt.Baseline
	}{{"baseline", base}, {"fresh", fresh}} {
		if len(doc.b.Scaling) == 0 {
			continue
		}
		fmt.Printf("%s scaling curve:\n", doc.label)
		for _, p := range doc.b.Scaling {
			fmt.Printf("  cores=%d %8.2fs  %5.2fx\n", p.Cores, p.WallSeconds, p.Speedup)
		}
		if err := benchfmt.CheckScaling(doc.b, *minScaling); err != nil {
			log.Fatal(err)
		}
	}

	if !hostGated && !benchfmt.HostMatches(base.Host, freshHost) {
		fmt.Printf("benchgate: WARNING: host fingerprint mismatch (baseline: %s; this host: %s); "+
			"skipping the wall-time gate, allocs/op still enforced\n", base.Host, freshHost)
		fmt.Println("benchgate: OK (allocs only)")
		return
	}
	if err := benchfmt.CheckWall(base, fresh, *maxPct); err != nil {
		log.Fatal(err)
	}
	fmt.Println("benchgate: OK")
}
