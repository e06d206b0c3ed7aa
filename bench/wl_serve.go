package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/conform"
	"repro/internal/policy"
	"repro/internal/prng"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Both serve workloads drive a fresh in-process dlpserved over loopback
// HTTP with two closed-loop clients — one connection each, acting as two
// tenants, each sending its next request only after the previous one
// completed. Two is nproc on the reference host: the load generator
// shares the machine with the two simulation workers it is loading.
const serveClients = 2

// request is one seeded spec as the client sends it.
type request struct {
	key  string // content key: digest of the request body
	body []byte
}

func newRequest(sp conform.Spec) request {
	sp.Schema = conform.SpecSchema
	body, err := json.Marshal(sp)
	if err != nil {
		panic(err) // a spec built from plain values always marshals
	}
	sum := sha256.Sum256(body)
	return request{key: "spec:" + hex.EncodeToString(sum[:8]), body: body}
}

// gatherSpec is a seeded all-gather kernel: fully diverged loads cost
// the engine the most host time per byte of trace, which matters because
// the server digests — and its runner memoizes — every submitted kernel.
func gatherSpec(seed uint64, blocks, warps, memInsns int) *workloads.SynthSpec {
	return &workloads.SynthSpec{
		Seed:            seed,
		Blocks:          blocks,
		WarpsPerBlock:   warps,
		MemInsnsPerWarp: memInsns,
		FootprintLines:  4096,
		HotLines:        8,
		StorePct:        10,
		GatherPct:       80,
		HotPct:          10,
		StridePct:       10,
	}
}

// coldSizes are the memory instructions per warp of the eight jobs of a
// burst, in seeded order: about 25 to 65 ms of simulation at the
// baseline configuration. Every burst holds each size once, so every
// seed does the same amount of work; the spread of sizes keeps the
// latency distribution smooth (equal jobs would finish in eight tight
// clusters, and a percentile sitting between two clusters jumps).
var coldSizes = [coldBurst]int{16, 20, 24, 28, 28, 32, 36, 40}

// coldRequest is the i-th distinct miss of a seed, policies in rotation.
func coldRequest(seed uint64, i, memInsns int) request {
	pols := policy.All()
	return newRequest(conform.Spec{
		Policy:    string(pols[i%len(pols)]),
		Workload:  conform.WorkloadRef{Synth: gatherSpec(seed<<20+uint64(i), 8, 8, memInsns)},
		MaxCycles: 5_000_000,
	})
}

// warmRequest is one of serve_hot's warm keys: a kernel of 16 warp
// instructions, so a repeat costs the server its own overhead — decode,
// build, digest, cache lookup, encode — and next to no generation.
func warmRequest(seed uint64, i int) request {
	return newRequest(conform.Spec{
		Policy:    string(config.PolicyDLP),
		Workload:  conform.WorkloadRef{Synth: gatherSpec(seed<<20+uint64(i), 1, 2, 8)},
		MaxCycles: 5_000_000,
	})
}

// pairRequest is a new key of serve_hot: about 2 ms of simulation.
func pairRequest(seed uint64, i int) request {
	return newRequest(conform.Spec{
		Policy:    string(config.PolicyDLP),
		Workload:  conform.WorkloadRef{Synth: gatherSpec(seed<<20+1<<19+uint64(i), 1, 4, 12)},
		MaxCycles: 5_000_000,
	})
}

// doomedRequest is a job that would run about three seconds — a small
// kernel on a machine with one MSHR and very slow DRAM — so a DELETE
// sent right after the submit always finds it mid-flight.
func doomedRequest(seed uint64, i int) request {
	cfg := config.Baseline()
	cfg.L1DMSHRs = 1
	cfg.L1DMissQueue = 1
	cfg.DRAMRowHit = 40000
	cfg.DRAMRowMiss = 40000
	return newRequest(conform.Spec{
		Policy:    string(config.PolicyDLP),
		Config:    cfg,
		Workload:  conform.WorkloadRef{Synth: gatherSpec(seed<<20+1<<18+uint64(i), 1, 2, 12)},
		MaxCycles: 1_000_000_000,
	})
}

// warpInsnsOf reads the retired warp instructions out of result bytes.
func warpInsnsOf(norm []byte) uint64 {
	var st stats.Stats
	if json.Unmarshal(norm, &st) != nil {
		return 0
	}
	return st.WarpInsns
}

// serveRound is what the two serve workloads share: the server, the
// clients, and a fixed warm-up.
type serveRound struct {
	e       *env
	srv     *liveServer
	clients []*client
}

func (r *serveRound) boot() error {
	sp := r.e.tr.begin("serve", "boot", "", 0, r.e.phase)
	defer r.e.tr.end(sp)
	srv, err := bootServer()
	if err != nil {
		return err
	}
	r.srv = srv
	for c := 0; c < serveClients; c++ {
		r.clients = append(r.clients, newClient(srv.base, fmt.Sprintf("t%d", c), c+1))
	}
	return nil
}

// serveWarmUpJobs is the fixed warm-up of both serve workloads.
const serveWarmUpJobs = 24

// warmUp runs the fixed cold-size warm-up jobs through the server, split
// between the clients, so connections, handler paths and the engine are
// warm before the timed phase. Warm-up results are not checked or counted.
func (r *serveRound) warmUp(ctx context.Context) error {
	sp := r.e.tr.begin("serve", "warm-up", "", 0, r.e.phase)
	defer r.e.tr.end(sp)
	n := r.e.scaled(serveWarmUpJobs, 2)
	return r.eachClient(ctx, func(ctx context.Context, c int, cl *client) error {
		for i := c; i < n; i += serveClients {
			_, status, err := cl.submit(ctx, coldRequest(0xaa, i, coldSizes[i%coldBurst]).body, true)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("warm-up job: status %d", status)
			}
		}
		return nil
	})
}

// eachClient runs fn once per client, concurrently, and returns the
// first error; an error cancels the other clients.
func (r *serveRound) eachClient(ctx context.Context, fn func(ctx context.Context, c int, cl *client) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for c, cl := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[c] = fn(ctx, c, cl); errs[c] != nil {
				cancel()
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && err != context.Canceled {
			return err
		}
	}
	return ctx.Err()
}

// rendezvous lines the two clients up: wait returns in both once both
// have called it.
type rendezvous chan struct{}

func newRendezvous() rendezvous { return make(chan struct{}) }

func (m rendezvous) wait(ctx context.Context, c int) error {
	if c == 0 {
		select {
		case m <- struct{}{}:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case <-m:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (r *serveRound) serverStats(ctx context.Context) (serve.StatsView, error) {
	var sv serve.StatsView
	err := r.clients[0].getJSON(ctx, http.MethodGet, "/stats", &sv)
	return sv, err
}

func (r *serveRound) close() {
	for _, cl := range r.clients {
		cl.close()
	}
	if r.srv != nil {
		r.srv.stop()
	}
}

// ---- serve_cold ----------------------------------------------------

// serve_cold: every request misses. Each client submits bursts of eight
// async POST /jobs of distinct specs, then follows each job's event
// stream to its terminal event in submission order and fetches its
// stats. Sixteen jobs outstanding over two workers makes queue wait
// visible.
const (
	coldBurst  = 8
	coldBursts = 12 // per client and round: 2 x 12 x 8 = 192 jobs
)

// coldRequests generates a round's requests, per client, in send order.
func coldRequests(seed uint64, bursts int) [][]request {
	reqs := make([][]request, serveClients)
	for c := range reqs {
		for b := 0; b < bursts; b++ {
			// Seeded per burst, so a reduced load sends a prefix of the
			// full load's requests.
			rng := prng.New(seed ^ 0xc01d ^ uint64(c*coldBursts+b)<<32)
			for i, p := range rng.Perm(coldBurst) {
				reqs[c] = append(reqs[c], coldRequest(seed, (c*coldBursts+b)*coldBurst+i, coldSizes[p]))
			}
		}
	}
	return reqs
}

type coldRound struct {
	serveRound
	reqs [][]request // per client
}

func newColdRound(e *env) round { return &coldRound{serveRound: serveRound{e: e}} }

// setup is server boot + spec generation + a fixed warm-up.
func (r *coldRound) setup(ctx context.Context) error {
	if err := r.boot(); err != nil {
		return err
	}
	r.reqs = coldRequests(r.e.seed, r.e.scaled(coldBursts, 1))
	return r.warmUp(ctx)
}

// coldJob is one job as a client saw it.
type coldJob struct {
	id              string
	latency         time.Duration
	submit, fetch   time.Duration
	queueWait, runT time.Duration
	warpInsns       uint64
}

// inflight is one submitted job the client has yet to collect.
type inflight struct {
	id     string
	start  time.Time
	submit time.Duration
	span   int
	err    error // the submit's
}

// collect follows one submitted job's event stream to its terminal
// event and fetches its stats.
func (r *coldRound) collect(ctx context.Context, cl *client, rq request, f *inflight) (coldJob, []byte, error) {
	if f.err != nil {
		return coldJob{}, nil, f.err
	}
	sp := r.e.tr.begin("client", "GET events", rq.key, cl.track, f.span)
	evs, err := cl.follow(ctx, f.id)
	r.e.tr.end(sp)
	qw, rt, terminal := eventTimes(evs)
	if err == nil && terminal != "done" {
		err = fmt.Errorf("job %s ended %q", f.id, terminal)
	}
	if err != nil {
		return coldJob{}, nil, err
	}
	sp = r.e.tr.begin("serve", "GET stats", rq.key, cl.track, f.span)
	t0 := time.Now()
	norm, err := cl.statsBytes(ctx, f.id)
	fetch := time.Since(t0)
	r.e.tr.end(sp)
	if err != nil {
		return coldJob{}, nil, err
	}
	if r.e.tr != nil {
		// Children rebuilt from the job's event log; t_ms counts from
		// the server's accept of the submit.
		at := r.e.tr.startOf(f.span)
		r.e.tr.add("serve.queue", "queue wait", rq.key, cl.track, f.span, at, at+qw)
		r.e.tr.add("sim", "run", rq.key, cl.track, f.span, at+qw, at+qw+rt)
	}
	return coldJob{
		id: f.id, latency: time.Since(f.start), submit: f.submit, fetch: fetch,
		queueWait: qw, runT: rt, warpInsns: warpInsnsOf(norm),
	}, norm, nil
}

func (r *coldRound) run(ctx context.Context) (measure, error) {
	perClient := make([][]coldJob, serveClients)
	meet := newRendezvous()
	err := r.eachClient(ctx, func(ctx context.Context, c int, cl *client) error {
		reqs := r.reqs[c]
		for b := 0; b < len(reqs); b += coldBurst {
			// Both clients start every burst together. Left alone, the
			// two loops drift in and out of phase, and the latency
			// percentiles follow the phase, not the code.
			if err := meet.wait(ctx, c); err != nil {
				return err
			}
			burst := reqs[b : b+coldBurst]
			flights := make([]inflight, len(burst))
			for i, rq := range burst {
				f := &flights[i]
				f.start = time.Now()
				f.span = r.e.tr.begin("client", "job", rq.key, cl.track, r.e.phase)
				sp := r.e.tr.begin("serve", "POST /jobs", rq.key, cl.track, f.span)
				jv, status, err := cl.submit(ctx, rq.body, false)
				r.e.tr.end(sp)
				f.submit = time.Since(f.start)
				if err == nil && status != http.StatusAccepted {
					err = fmt.Errorf("async submit: status %d", status)
				}
				f.id, f.err = jv.ID, err
			}
			for i, rq := range burst {
				job, norm, err := r.collect(ctx, cl, rq, &flights[i])
				r.e.tr.end(flights[i].span)
				r.e.chk.result(rq.key, norm, err)
				if err == nil {
					perClient[c] = append(perClient[c], job)
				}
			}
		}
		return nil
	})
	var m measure
	var jobs []coldJob
	for _, js := range perClient {
		jobs = append(jobs, js...)
	}
	for _, j := range jobs {
		m.jobs++
		m.warpInsns += j.warpInsns
		m.latencies = append(m.latencies, j.latency)
	}
	if err != nil {
		return m, err
	}
	if r.e.led != nil {
		if err := r.ledger(ctx, jobs); err != nil {
			return m, err
		}
	}
	return m, nil
}

// ledger records serve_cold's per-layer samples. It runs after the
// clients finished; the per-job wall_ms fetches it makes are outside
// every latency sample (but inside the traced round's wall, which is
// part of what bench.trace_overhead reports).
func (r *coldRound) ledger(ctx context.Context, jobs []coldJob) error {
	var submit, fetch, qw, run, lat []time.Duration
	var wallMS, latMS float64
	for _, j := range jobs {
		submit = append(submit, j.submit)
		fetch = append(fetch, j.fetch)
		qw = append(qw, j.queueWait)
		run = append(run, j.runT)
		lat = append(lat, j.latency)
		var jv serve.JobView
		if err := r.clients[0].getJSON(ctx, http.MethodGet, "/jobs/"+j.id, &jv); err != nil {
			return err
		}
		wallMS += float64(jv.WallMS)
		latMS += ms(j.latency)
	}
	led := r.e.led
	led.setPercentile("serve.submit_ms_p50", submit, 50)
	led.setPercentile("serve.fetch_stats_ms_p50", fetch, 50)
	led.setPercentile("serve.queue_wait_ms_p50", qw, 50)
	led.setPercentile("serve.queue_wait_ms_p90", qw, 90)
	led.setPercentile("serve.run_ms_p50", run, 50)
	led.setPercentile("serve.latency_p99_ms", lat, 99)
	if latMS > 0 {
		led.set("serve.overhead_share", 1-wallMS/latMS)
	}
	sv, err := r.serverStats(ctx)
	if err != nil {
		return err
	}
	led.add("serve.rejected", float64(sv.Rejected))
	return nil
}

// ---- serve_hot -----------------------------------------------------

// serve_hot: the same server used differently. Set-up fills the cache
// with 64 points; then every block of 25 positions holds, in seeded
// order, 20 synchronous repeats of warm keys, 3 new-key pairs (both
// clients submit the same new spec at the same moment: single-flight
// coalescing) and 2 submit-then-DELETE of a job that would run ~3 s.
// The mix is exact per block, not drawn, so every seed does the same
// amount of each kind of work. It is 80/12/8 rather than ISSUE 12's
// 80/10/10 so that p90 falls inside the slow classes instead of on the
// boundary between two.
const (
	hotWarmKeys  = 64
	hotBlocks    = 150 // per client and round: 150 x 25 positions
	hotBlockLen  = 25
	hotBlockHits = 20
	hotBlockPair = 3
)

type hotKind uint8

const (
	hotHit hotKind = iota
	hotPair
	hotCancel
)

type hotRound struct {
	serveRound
	warm   []request
	sched  []hotKind // shared by both clients, so pairs line up
	blocks int
}

func newHotRound(e *env) round { return &hotRound{serveRound: serveRound{e: e}} }

// hotSchedule is the seeded order of kinds: exact quotas per block.
func hotSchedule(seed uint64, blocks int) []hotKind {
	rng := prng.New(seed ^ 0x407)
	block := make([]hotKind, hotBlockLen)
	for i := range block {
		switch {
		case i < hotBlockHits:
			block[i] = hotHit
		case i < hotBlockHits+hotBlockPair:
			block[i] = hotPair
		default:
			block[i] = hotCancel
		}
	}
	var out []hotKind
	for b := 0; b < blocks; b++ {
		for _, p := range rng.Perm(hotBlockLen) {
			out = append(out, block[p])
		}
	}
	return out
}

// setup is server boot + spec generation + a fixed warm-up + filling
// the cache with the warm keys.
func (r *hotRound) setup(ctx context.Context) error {
	if err := r.boot(); err != nil {
		return err
	}
	r.blocks = r.e.scaled(hotBlocks, 1)
	r.sched = hotSchedule(r.e.seed, r.blocks)
	r.warm = r.warm[:0]
	for i := 0; i < hotWarmKeys; i++ {
		r.warm = append(r.warm, warmRequest(r.e.seed, i))
	}
	if err := r.warmUp(ctx); err != nil {
		return err
	}
	sp := r.e.tr.begin("serve", "fill cache", "", 0, r.e.phase)
	defer r.e.tr.end(sp)
	return r.eachClient(ctx, func(ctx context.Context, c int, cl *client) error {
		for i := c; i < len(r.warm); i += serveClients {
			_, status, err := cl.submit(ctx, r.warm[i].body, true)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("filling the cache: status %d", status)
			}
		}
		return nil
	})
}

func (r *hotRound) run(ctx context.Context) (measure, error) {
	type sample struct {
		kind    hotKind
		latency time.Duration
		del     time.Duration // cancel: the DELETE round trip alone
	}
	perClient := make([][]sample, serveClients)
	var pairInsns uint64 // written by client 0 only: one simulation per pair
	meet := newRendezvous()

	// wait submits synchronously and checks the inline result.
	wait := func(ctx context.Context, cl *client, rq request, name string) (uint64, time.Duration) {
		sp := r.e.tr.begin("serve", name, rq.key, cl.track, r.e.phase)
		t0 := time.Now()
		jv, status, err := cl.submit(ctx, rq.body, true)
		lat := time.Since(t0)
		r.e.tr.end(sp)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("sync submit: status %d (%s)", status, jv.Status)
		}
		var norm []byte
		if err == nil {
			norm, err = renormalize(jv.Stats)
		}
		r.e.chk.result(rq.key, norm, err)
		return warpInsnsOf(norm), lat
	}

	err := r.eachClient(ctx, func(ctx context.Context, c int, cl *client) error {
		rng := prng.New(r.e.seed<<8 + uint64(c))
		for pos, kind := range r.sched {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			switch kind {
			case hotHit:
				_, lat := wait(ctx, cl, r.warm[rng.Intn(len(r.warm))], "POST /jobs?wait=1 (warm)")
				perClient[c] = append(perClient[c], sample{kind: hotHit, latency: lat})
			case hotPair:
				if err := meet.wait(ctx, c); err != nil {
					return err
				}
				n, lat := wait(ctx, cl, pairRequest(r.e.seed, pos), "POST /jobs?wait=1 (new)")
				if c == 0 {
					pairInsns += n
				}
				perClient[c] = append(perClient[c], sample{kind: hotPair, latency: lat})
			case hotCancel:
				rq := doomedRequest(r.e.seed, pos*serveClients+c)
				sp := r.e.tr.begin("serve", "POST /jobs (doomed)", rq.key, cl.track, r.e.phase)
				t0 := time.Now()
				jv, status, err := cl.submit(ctx, rq.body, false)
				r.e.tr.end(sp)
				if err == nil && status != http.StatusAccepted {
					err = fmt.Errorf("async submit: status %d", status)
				}
				var del time.Duration
				if err == nil {
					sp = r.e.tr.begin("serve", "DELETE /jobs/{id}", rq.key, cl.track, r.e.phase)
					t1 := time.Now()
					var after serve.JobView
					err = cl.getJSON(ctx, http.MethodDelete, "/jobs/"+jv.ID, &after)
					del = time.Since(t1)
					r.e.tr.end(sp)
					if err == nil && after.Status != serve.StatusCancelled {
						err = fmt.Errorf("job %s is %s after DELETE", jv.ID, after.Status)
					}
				}
				r.e.chk.op(err)
				perClient[c] = append(perClient[c], sample{kind: hotCancel, latency: time.Since(t0), del: del})
			}
		}
		return nil
	})

	var m measure
	var hits, misses, cancels []time.Duration
	m.warpInsns = pairInsns
	for _, ss := range perClient {
		for _, s := range ss {
			m.jobs++
			m.latencies = append(m.latencies, s.latency)
			switch s.kind {
			case hotHit:
				hits = append(hits, s.latency)
			case hotPair:
				misses = append(misses, s.latency)
			case hotCancel:
				cancels = append(cancels, s.del)
			}
		}
	}
	if err != nil {
		return m, err
	}
	if led := r.e.led; led != nil {
		led.setPercentile("serve.hit_latency_ms_p50", hits, 50)
		led.setPercentile("serve.miss_latency_ms_p50", misses, 50)
		led.setPercentile("serve.cancel_ms_p50", cancels, 50)
		sv, err := r.serverStats(ctx)
		if err != nil {
			return m, err
		}
		led.add("serve.rejected", float64(sv.Rejected))
		led.set("runner.cache_hits", float64(sv.Cache.Hits))
		led.set("runner.cache_misses", float64(sv.Cache.Misses))
		led.set("runner.coalesced", float64(sv.Cache.Coalesced))
	}
	return m, nil
}
