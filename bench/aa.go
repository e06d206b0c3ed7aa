package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/benchfmt"
)

// runAA is the A/A self-check: two sets of N runs of the same binary per
// workload, interleaved in time (A1 B1 A2 B2 ...), each run its own
// process with its own seed (run i of either set uses seed -seed+i). It
// prints the table committed as NOISE.md: per metric and workload, each
// set's median, its run-to-run (max-min)/median, its quartile spread
// (Q3-Q1)/median — the driver's steadiness measure — and the gap between
// the two medians against the metric's bound.
func runAA(ctx context.Context, o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type cell struct{ a, b []float64 }
	cells := map[string]*cell{} // "workload/metric"
	failed := 0
	for i := 0; i < o.aa; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloadDefs {
				res, err := runChild(ctx, exe, o, w.Name, o.seed+uint64(i))
				if err != nil {
					return fmt.Errorf("%s run %d of set %c: %w", w.Name, i+1, 'A'+set, err)
				}
				failed += res.Failed
				for name, v := range res.Metrics {
					c := cells[w.Name+"/"+name]
					if c == nil {
						c = &cell{}
						cells[w.Name+"/"+name] = c
					}
					if set == 0 {
						c.a = append(c.a, v.Value)
					} else {
						c.b = append(c.b, v.Value)
					}
				}
				fmt.Fprintf(os.Stderr, "aa: %s run %d set %c: %.4g jobs/s, cpu %.4gs, p50 %.4gms, rss %.4gMB\n", w.Name, i+1, 'A'+set,
					res.Metrics["jobs_per_s"].Value, res.Metrics["cpu_s"].Value, res.Metrics["latency_p50_ms"].Value, res.Metrics["peak_rss_mb"].Value)
			}
		}
	}

	fmt.Printf("# A/A noise table\n\n")
	fmt.Printf("`dlpbench -aa %d -seed %d -seconds %d` on %s (%s, GOMAXPROCS %d): two interleaved sets of %d runs per workload,\n",
		o.aa, o.seed, o.seconds, benchfmt.CurrentHost().Fingerprint(), runtime.Version(), min(2, runtime.NumCPU()), o.aa)
	fmt.Printf("run i of each set on seed %d+i. `range` is (max-min)/median over a set's runs, `iqr` is (Q3-Q1)/median,\n", o.seed)
	fmt.Printf("`gap` is the distance between the two sets' medians as a share of set A's. A row is `ok` when the gap\n")
	fmt.Printf("and both quartile spreads are inside the bound. Operations failed across all runs: %d.\n\n", failed)
	fmt.Printf("| workload | metric | unit | median A | median B | range A | range B | iqr A | iqr B | gap | bound | |\n")
	fmt.Printf("|---|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---|\n")
	bad := 0
	for _, w := range workloadDefs {
		for _, d := range endToEnd {
			c := cells[w.Name+"/"+d.Name]
			if c == nil {
				return fmt.Errorf("no samples for %s/%s", w.Name, d.Name)
			}
			ma, mb := median(c.a), median(c.b)
			gap := math.Abs(ma-mb) / ma
			verdict := "ok"
			steady := iqrShare(c.a) <= d.Bound && iqrShare(c.b) <= d.Bound
			if d.Name == "setup_s" {
				steady = true // the driver exempts set-up time from the spread rule
			}
			if gap > d.Bound || !steady {
				verdict = "**over**"
				bad++
			}
			fmt.Printf("| %s | %s | %s | %s | %s | %.1f%% | %.1f%% | %.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.Name, d.Name, d.Unit, sig(ma), sig(mb),
				100*rangeShare(c.a), 100*rangeShare(c.b), 100*iqrShare(c.a), 100*iqrShare(c.b),
				100*gap, 100*d.Bound, verdict)
		}
	}
	fmt.Printf("\n%d of %d rows over their bound.\n", bad, len(workloadDefs)*len(endToEnd))
	return nil
}

// runChild runs one workload run in its own process and parses the
// result line.
func runChild(ctx context.Context, exe string, o options, workload string, seed uint64) (result, error) {
	var res result
	cmd := exec.CommandContext(ctx, exe,
		"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", "0",
		"-workdir", o.workdir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%w: %s", err, strings.TrimSpace(stderr.String()))
	}
	os.Stderr.Write(stderr.Bytes()) // the child's per-round log
	out = bytes.TrimSpace(out)
	last := out[bytes.LastIndexByte(out, '\n')+1:]
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("result line: %w", err)
	}
	return res, validateResult(res, endToEnd)
}

func rangeShare(xs []float64) float64 { return (maxOf(xs) - minOf(xs)) / median(xs) }

// iqrShare is (Q3-Q1)/median with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), which is
// what the driver computes.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th quartile
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(xs)
}

// sig prints a value with four significant digits.
func sig(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }
