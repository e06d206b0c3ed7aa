package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
)

// tracedRun is `-trace 1`: one traced round of every workload (the serve
// rows of the ledger come from the serve rounds, model.* and the
// workloads.* rows from suite_batch, whichever workload was asked for),
// one more round of the requested workload with tracing off, and the
// micro-drivers. It prints the per-layer ledger; end-to-end numbers are
// never taken from a traced run.
func tracedRun(ctx context.Context, w workload, e *env, o options, prov *provenance, logf func(string, ...any)) (map[string]metricValue, error) {
	tr, led := newTracer(), newLedger()
	// Each workload checks against its own committed digests; the run
	// reports one total.
	round := func(x workload, tr *tracer, led *ledger) (roundStats, error) {
		expected, err := loadExpected(x.def.Name, e.seed)
		if err != nil {
			return roundStats{}, err
		}
		ex := &env{seed: e.seed, load: e.load, tr: tr, led: led, tmp: e.tmp, chk: newChecker(expected)}
		rs, err := runRound(ctx, x, ex)
		e.chk.absorb(ex.chk)
		return rs, err
	}
	var traced roundStats
	for _, x := range allWorkloads() {
		rs, err := round(x, tr, led)
		if err != nil {
			return nil, err
		}
		logf("traced %s: setup %.3fs  wall %.3fs  %d jobs", x.def.Name, rs.setup.Seconds(), rs.wall.Seconds(), rs.m.jobs)
		if x.def.Name == w.def.Name {
			traced = rs
		}
	}

	plain, err := round(w, nil, nil)
	if err != nil {
		return nil, err
	}
	logf("untraced %s: wall %.3fs", w.def.Name, plain.wall.Seconds())
	// The share of throughput tracing costs: one traced and one untraced
	// round, so it carries a single round's host noise.
	led.set("bench.trace_overhead", (plain.jobsPerS()-traced.jobsPerS())/plain.jobsPerS())
	prov.Rounds, prov.BestRound = 1, 1

	if err := runMicro(ctx, led, tr, e.tmp); err != nil {
		return nil, err
	}

	out := o.traceOut
	if out == "" {
		out = filepath.Join(o.workdir, "trace-"+w.def.Name+".json")
	}
	if err := writeTrace(tr, out); err != nil {
		return nil, err
	}
	logf("wrote %s and %s", out, out+".layers.txt")
	tr.writeSelfTimes(os.Stderr)
	if e.load < 1 {
		// Reduced loads drop the applications some ledger rows are read
		// from; fill those rows so the shape of the output still holds.
		for _, d := range perLayer {
			led.add(d.Name, 0)
		}
	}
	return led.metrics()
}

// writeTrace writes the Chrome trace and, beside it, the per-layer
// self-time table.
func writeTrace(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	t, err := os.Create(path + ".layers.txt")
	if err != nil {
		return err
	}
	tr.writeSelfTimes(t)
	if err := t.Close(); err != nil {
		return fmt.Errorf("writing the self-time table: %w", err)
	}
	return nil
}
