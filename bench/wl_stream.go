package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/config"
	"repro/internal/conform"
	"repro/internal/prng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// big_stream is the "10-100x scale in bounded memory" path: serial
// streamed simulations (one at a time, Cores = 1) called directly on
// sim.RunStreamOnce, so neither runner nor serve does anything.
//
//	SC at scale 2 under DLP        x18  via workloads.Spec.Stream
//	CFD under Baseline             x2   via workloads.Spec.Stream
//	HG at scale 3 under DLP        x2   replayed from the DLPSTRM1 file recorded in set-up
//	seeded synthetic mix under DLP x6   via workloads.SynthSpec.Stream
//
// Scales and counts are trimmed so a round's timed phase takes about
// five seconds. The run order is fixed (each group spread evenly through
// the list) because the latency rows are completion-time quantiles of
// the batch and must not depend on where a shuffle put the two long CFD
// jobs; the seed chooses the synthetic streams.
const (
	streamSCScale = 2
	streamHGScale = 3
)

type streamJob struct {
	key    string
	policy config.Policy
	open   func() (trace.Stream, error)
}

type streamRound struct {
	e    *env
	hg   *trace.FileStream
	jobs []streamJob
}

func newStreamRound(e *env) round { return &streamRound{e: e} }

// streamSynth is the i-th seeded synthetic stream spec of a run.
func streamSynth(seed uint64, i int) workloads.SynthSpec {
	return workloads.SynthSpec{
		Name:            fmt.Sprintf("bench-stream-%d", i),
		Seed:            prng.New(seed^0x5715ea).Uint64() + uint64(i),
		Blocks:          16,
		WarpsPerBlock:   8,
		MemInsnsPerWarp: 64,
		ComputeRun:      4,
		FootprintLines:  2048,
		HotLines:        4,
		StorePct:        10,
		StreamPct:       20,
		StridePct:       20,
		GatherPct:       20,
		HotPct:          20,
		ConflictPct:     20,
	}
}

// setup is DLPSTRM1 record plus the trace.Open re-hash.
func (r *streamRound) setup(ctx context.Context) error {
	hg, err := workloads.ByAbbr("HG")
	if err != nil {
		return err
	}
	sc, err := workloads.ByAbbr("SC")
	if err != nil {
		return err
	}
	cfd, err := workloads.ByAbbr("CFD")
	if err != nil {
		return err
	}
	path := filepath.Join(r.e.tmp, "hg.dlpstrm")
	sp := r.e.tr.begin("trace", "WriteFile HG", "", 0, r.e.phase)
	err = trace.WriteFile(path, hg.Stream(streamHGScale), 0)
	r.e.tr.end(sp)
	if err != nil {
		return err
	}
	sp = r.e.tr.begin("trace", "Open HG", "", 0, r.e.phase)
	r.hg, err = trace.Open(path)
	r.e.tr.end(sp)
	if err != nil {
		return err
	}

	type group struct {
		n   int
		job func(i int) streamJob
	}
	groups := []group{
		{r.e.scaled(18, 2), func(int) streamJob {
			return streamJob{fmt.Sprintf("app:SC:scale%d|DLP|stream", streamSCScale), config.PolicyDLP,
				func() (trace.Stream, error) { return sc.Stream(streamSCScale), nil }}
		}},
		{r.e.scaled(2, 0), func(int) streamJob {
			return streamJob{"app:CFD:scale1|Baseline|stream", config.PolicyBaseline,
				func() (trace.Stream, error) { return cfd.Stream(1), nil }}
		}},
		{r.e.scaled(2, 1), func(int) streamJob {
			return streamJob{fmt.Sprintf("app:HG:scale%d|DLP|file", streamHGScale), config.PolicyDLP,
				func() (trace.Stream, error) { return r.hg, nil }}
		}},
		{r.e.scaled(6, 1), func(i int) streamJob {
			spec := streamSynth(r.e.seed, i)
			return streamJob{fmt.Sprintf("synth:%d|DLP|stream", spec.Seed), config.PolicyDLP,
				func() (trace.Stream, error) { return spec.Stream(), nil }}
		}},
	}
	// Spread each group evenly through the run order.
	type placed struct {
		at  float64
		job streamJob
	}
	var all []placed
	for _, g := range groups {
		for i := 0; i < g.n; i++ {
			all = append(all, placed{(float64(i) + 0.5) / float64(g.n), g.job(i)})
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].at < all[b].at })
	r.jobs = r.jobs[:0]
	for _, p := range all {
		r.jobs = append(r.jobs, p.job)
	}
	return nil
}

func (r *streamRound) run(ctx context.Context) (measure, error) {
	cfg := config.Baseline()
	var m measure
	t0 := time.Now()
	for _, j := range r.jobs {
		src, err := j.open()
		if err != nil {
			return m, err
		}
		sp := r.e.tr.begin("sim", "RunStreamOnce", j.key, 1, r.e.phase)
		st, err := sim.RunStreamOnce(ctx, cfg, j.policy, src, sim.Options{Cores: 1})
		r.e.tr.end(sp)
		if err != nil {
			r.e.chk.result(j.key, nil, err)
			continue
		}
		norm, nerr := conform.Normalize(st)
		r.e.chk.result(j.key, norm, nerr)
		m.jobs++
		m.warpInsns += st.WarpInsns
		m.latencies = append(m.latencies, time.Since(t0))
	}
	return m, ctx.Err()
}

func (r *streamRound) close() {
	if r.hg != nil {
		r.hg.Close()
		r.hg = nil
	}
}
