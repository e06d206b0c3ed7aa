package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/interconnect"
	"repro/internal/l2"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/rdd"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The micro-drivers fill the per-layer ledger purely from outside: each
// times calls into one layer's exported functions, or reads its exported
// counters. None of them is judged against a bound; they exist so an
// optimisation PR can start from a table that says where the time is.

// perOp times fn(n) — n back-to-back operations — and returns the cost of
// one: n grows until a batch takes a few milliseconds, then the best of
// three batches counts, for the same reason the workloads report their
// best round.
func perOp(fn func(n int)) time.Duration {
	n := 64
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d >= 4*time.Millisecond || n >= 1<<22 {
			break
		}
		n *= 4
	}
	best := time.Duration(math.MaxInt64)
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0) / time.Duration(n); d < best {
			best = d
		}
	}
	return best
}

// bestOf returns the shortest of reps timings of fn.
func bestOf(reps int, fn func() error) (time.Duration, error) {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best, nil
}

// mallocs counts heap allocations and bytes during fn.
func mallocs(fn func() error) (allocs, bytes uint64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, err
}

// microKernel is the reference kernel of the sm and trace drivers: a
// seeded pattern mix, small enough to walk in a few milliseconds.
var microKernel = workloads.SynthSpec{
	Name: "bench-micro", Seed: 12, Blocks: 4, WarpsPerBlock: 8, MemInsnsPerWarp: 64, ComputeRun: 2,
	FootprintLines: 1024, HotLines: 8, StorePct: 10,
	StreamPct: 30, StridePct: 20, GatherPct: 20, HotPct: 20, ConflictPct: 10,
}

// runMicro runs every micro-driver. tmp is a scratch directory.
func runMicro(ctx context.Context, led *ledger, tr *tracer, tmp string) error {
	sp := tr.begin("bench", "micro-drivers", "", 0, -1)
	defer tr.end(sp)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"mem+dram+cache", func() error { microMemCache(led); return nil }},
		{"interconnect", func() error { microInterconnect(led); return nil }},
		{"l2", func() error { microL2(led); return nil }},
		{"core+policy", func() error { return microCore(led) }},
		{"sm", func() error { return microSM(led) }},
		{"trace+workloads", func() error { return microTrace(led, tmp) }},
		{"metrics+report+rdd", func() error { return microExtras(led) }},
		{"conform+runner", func() error { return microRunner(ctx, led, tmp) }},
		{"sim", func() error { return microSim(ctx, led) }},
	}
	for _, s := range steps {
		if err := ctx.Err(); err != nil {
			return err
		}
		c := tr.begin("bench", "micro "+s.name, "", 0, sp)
		err := s.fn()
		tr.end(c)
		if err != nil {
			return fmt.Errorf("micro-driver %s: %w", s.name, err)
		}
	}
	return nil
}

func microMemCache(led *ledger) {
	cfg := config.Baseline()

	pool := mem.NewPool()
	led.set("mem.pool_get_put_ns", ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			pool.Put(pool.Get())
		}
	})))

	ch := dram.New(cfg.DRAMBanks, cfg.DRAMRowHit, cfg.DRAMRowMiss, cfg.DRAMBusCycles,
		cfg.CoreClockMHz, cfg.MemClockMHz, cfg.NumPartitions)
	stride := addr.Addr(cfg.L2.LineSize * cfg.NumPartitions)
	var now uint64
	var line addr.Addr
	led.set("dram.access_ns", ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			line += stride * 7 // walks banks and rows
			now = ch.Access(line, cfg.L2.LineSize, now)
		}
	})))

	kind := addr.LinearIndex
	if cfg.L1D.Hashed {
		kind = addr.HashIndex
	}
	m := addr.MustMapper(cfg.L1D.LineSize, cfg.L1D.Sets, kind)
	ta := cache.NewTagArray(m, cfg.L1D.Ways)
	lines := make([]addr.Addr, 2*cfg.L1D.Lines()) // half resident, half not
	for i := range lines {
		lines[i] = addr.Addr(i * cfg.L1D.LineSize)
		if i%2 == 0 {
			set := m.Set(lines[i])
			if way := ta.VictimIn(set, nil); way >= 0 {
				ta.Reserve(set, way, lines[i])
				ta.Fill(set, way)
			}
		}
	}
	sink := 0
	led.set("cache.tag_probe_ns", ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			_, way, _ := ta.Probe(lines[i%len(lines)])
			sink += way
		}
	})))

	ms := cache.NewMSHR(cfg.L1DMSHRs, cfg.L1DMSHRMerges)
	req := &mem.Request{Addr: 0x4000}
	led.set("cache.mshr_alloc_release_ns", ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			ms.Allocate(req, 0, 0)
			ms.Recycle(ms.Release(req.Addr))
		}
	})))
	_ = sink
}

func microInterconnect(led *ledger) {
	cfg := config.Baseline()
	newNet := func() *interconnect.Network {
		return interconnect.New(cfg.ICNTLatency, cfg.ICNTBandwidthFlits, cfg.ICNTFlitBytes, cfg.L1D.LineSize, &stats.Stats{})
	}

	// One packet: inject, tick through the flight, collect.
	net := newNet()
	req := &mem.Request{}
	var now uint64
	led.set("interconnect.push_pop_ns", ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			net.Push(interconnect.ToMem, req)
			for {
				net.Tick(now)
				now++
				if net.PopArrived(interconnect.ToMem) != nil {
					break
				}
			}
		}
	})))

	// The engine's per-cycle pattern: a lane of 8 handed over whole.
	const batch = 8
	net = newNet()
	reqs := make([]*mem.Request, batch)
	for i := range reqs {
		reqs[i] = &mem.Request{SM: i}
	}
	lane := make([]*mem.Request, 0, batch)
	now = 0
	led.set("interconnect.push_batch_ns", ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			lane = append(lane[:0], reqs...)
			lane = net.PushBatch(interconnect.ToMem, lane)
			for popped := 0; popped < batch; {
				net.Tick(now)
				now++
				for net.PopArrived(interconnect.ToMem) != nil {
					popped++
				}
			}
		}
	})))
}

func microL2(led *ledger) {
	cfg := config.Baseline()
	// One read through a partition: enqueue, service, jump to the
	// scheduled completion (as the engine's fast-forward does), collect.
	access := func(p *l2.Partition, now *uint64, req *mem.Request) {
		p.Enqueue(req)
		for {
			p.Tick(*now)
			if p.PopResponse() != nil {
				return
			}
			if at, ok := p.NextEvent(); ok && at > *now {
				*now = at
			} else {
				*now++
			}
		}
	}
	stride := addr.Addr(cfg.L2.LineSize * cfg.NumPartitions) // lines of partition 0

	p := l2.New(cfg, &stats.Stats{}, nil)
	var now uint64
	req := &mem.Request{Addr: stride}
	access(p, &now, req) // resident from here on
	led.set("l2.hit_ns", ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			access(p, &now, req)
		}
	})))

	p = l2.New(cfg, &stats.Stats{}, nil)
	now = 0
	var line addr.Addr
	led.set("l2.miss_ns", ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			line += stride
			req.Addr = line
			access(p, &now, req)
		}
	})))
}

func microCore(led *ledger) error {
	cfg := config.Baseline()
	drain := func(c *core.L1D, req *mem.Request) {
		for r := c.PopOutgoing(); r != nil; r = c.PopOutgoing() {
			c.OnResponse(r)
		}
		// The engine's pool zeroes recycled requests; one reused object
		// must do the same or a bypassed round turns the next fill into
		// a delivery.
		req.Bypass = false
	}
	for _, pol := range policy.All() {
		// Hit path: one resident line, re-accessed every cycle.
		c := core.NewL1D(cfg, pol, func(*mem.Request) {})
		req := &mem.Request{ID: 1, Addr: 0x1000, InsnID: addr.HashPC(3)}
		hit := false
		for round := 0; round < 8 && !hit; round++ { // ATA admits on the second touch
			req.ID++
			hit = c.Access(req) == mem.OutcomeHit
			drain(c, req)
		}
		if !hit {
			return fmt.Errorf("%s: L1D did not reach the hit path", pol)
		}
		now := req.ID
		led.set("core.l1d_hit_ns."+string(pol), ns(perOp(func(n int) {
			for i := 0; i < n; i++ {
				now++
				c.Tick(now)
				req.ID = now
				c.Access(req)
			}
		})))

		// Miss path: a new line every access, fetched and filled (or,
		// under a bypassing scheme, sent around and delivered).
		c = core.NewL1D(cfg, pol, func(*mem.Request) {})
		req = &mem.Request{ID: 1, InsnID: addr.HashPC(3)}
		now = 0
		led.set("core.l1d_miss_ns."+string(pol), ns(perOp(func(n int) {
			for i := 0; i < n; i++ {
				now++
				c.Tick(now)
				req.ID = now
				req.Addr += addr.Addr(cfg.L1D.LineSize)
				c.Access(req)
				drain(c, req)
			}
		})))
	}

	// Fig. 9: credit hits, close a sample every 200 accesses.
	pd := policy.NewPDPT(cfg.PDPTEntries, 4, cfg.MaxPD())
	k := 0
	led.set("policy.pdpt_sample_ns", ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			k++
			pd.CreditVTA(uint8(k % 128))
			pd.CreditTDA(uint8((k + 7) % 128))
			if k%200 == 0 {
				pd.EndSample()
			}
		}
	})))
	return nil
}

// driveSM runs one SM over its assigned blocks with a zero-latency
// memory behind the L1D and returns the warp instructions issued.
func driveSM(s *sm.SM, pool *mem.Pool) (uint64, error) {
	for now := uint64(1); now < 1<<24; now++ {
		s.Tick(now)
		for out := s.L1D().PopOutgoing(); out != nil; out = s.L1D().PopOutgoing() {
			if out.Store {
				pool.Put(out)
			} else {
				s.L1D().OnResponse(out)
			}
		}
		if s.Done() {
			return s.Stats().WarpInsns, nil
		}
	}
	return 0, fmt.Errorf("SM did not drain")
}

func microSM(led *ledger) error {
	cfg := config.Baseline()
	k := microKernel.Kernel()
	k.PrecomputeCoalesced(cfg.L1D.LineSize) // as the eager frontend hands it over
	src := microKernel.Stream()

	// issue drives a fresh SM three times and keeps the fastest drive:
	// host time per issued warp instruction, and the drive's allocations.
	issue := func(assign func(*sm.SM)) (perInsn time.Duration, allocs uint64, err error) {
		perInsn = time.Duration(math.MaxInt64)
		for rep := 0; rep < 3; rep++ {
			pool := mem.NewPool()
			s := sm.New(cfg, 0, config.PolicyBaseline, pool)
			assign(s)
			var insns uint64
			t0 := time.Now()
			a, _, err := mallocs(func() error {
				var err error
				insns, err = driveSM(s, pool)
				return err
			})
			if err != nil {
				return 0, 0, err
			}
			if d := time.Since(t0) / time.Duration(insns); d < perInsn {
				perInsn, allocs = d, a
			}
		}
		return perInsn, allocs, nil
	}
	eager, _, err := issue(func(s *sm.SM) {
		for _, b := range k.Blocks {
			s.AssignBlock(b)
		}
	})
	if err != nil {
		return err
	}
	stream, allocs, err := issue(func(s *sm.SM) {
		for b := 0; b < src.Blocks(); b++ {
			s.AssignStream(src, b)
		}
	})
	if err != nil {
		return err
	}
	led.set("sm.issue_ns_eager", ns(eager))
	led.set("sm.issue_ns_stream", ns(stream))
	led.set("sm.issue_allocs", float64(allocs))
	return nil
}

// walkStream pulls every window of every warp of src through Fill and
// returns the number of Fill calls.
func walkStream(src trace.Stream, pool *trace.ChunkPool) int {
	fills := 0
	c := pool.Get()
	for b := 0; b < src.Blocks(); b++ {
		for w := 0; w < src.Warps(b); w++ {
			for start := 0; ; {
				c.Reset()
				win, eof, _ := src.Fill(b, w, start, c)
				fills++
				start += len(win)
				if eof {
					break
				}
			}
		}
	}
	pool.Put(c)
	return fills
}

func microTrace(led *ledger, tmp string) error {
	lineSize := config.Baseline().L1D.LineSize
	k := microKernel.Kernel()
	insns := 0
	for _, b := range k.Blocks {
		for _, w := range b.Warps {
			insns += len(w.Instrs)
		}
	}

	var cur trace.Cursor
	walk := func() {
		for !cur.Exhausted() {
			_ = cur.Cur()
			cur.Advance()
		}
	}
	d, _ := bestOf(5, func() error {
		for _, b := range k.Blocks {
			for _, w := range b.Warps {
				cur.InitPrecomputed(w)
				walk()
			}
		}
		return nil
	})
	led.set("trace.cursor_ns_precomputed", ns(d)/float64(insns))

	src := microKernel.Stream()
	pool := trace.NewChunkPool(0)
	d, _ = bestOf(5, func() error {
		for b := 0; b < src.Blocks(); b++ {
			for w := 0; w < src.Warps(b); w++ {
				cur.InitStream(src, pool, lineSize, b, w)
				walk()
				cur.Release()
			}
		}
		return nil
	})
	led.set("trace.cursor_ns_stream", ns(d)/float64(insns))

	// Coalescing without the memo: fresh kernel, reused scratch buffer.
	var buf []addr.Addr
	memInsns := 0
	d, _ = bestOf(5, func() error {
		memInsns = 0
		for _, b := range k.Blocks {
			for _, w := range b.Warps {
				for i := range w.Instrs {
					if in := &w.Instrs[i]; in.Kind != trace.Compute {
						buf = in.AppendCoalescedLines(buf[:0], lineSize)
						memInsns++
					}
				}
			}
		}
		return nil
	})
	led.set("trace.coalesce_ns", ns(d)/float64(memInsns))

	// Record, open and refill a DLPSTRM1 file of the SC application,
	// and the generator-backed refill it replaces.
	sc, err := workloads.ByAbbr("SC")
	if err != nil {
		return err
	}
	path := filepath.Join(tmp, "micro-sc.dlpstrm")
	d, err = bestOf(2, func() error { return trace.WriteFile(path, sc.Stream(1), 0) })
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	led.set("trace.write_mb_s", float64(fi.Size())/1e6/d.Seconds())

	var fs *trace.FileStream
	d, err = bestOf(3, func() error {
		if fs != nil {
			fs.Close()
		}
		var err error
		fs, err = trace.Open(path)
		return err
	})
	if err != nil {
		return err
	}
	defer fs.Close()
	led.set("trace.open_ms", ms(d))

	fpool := trace.NewChunkPool(fs.ChunkInstrs())
	fills := 0
	d, _ = bestOf(3, func() error { fills = walkStream(fs, fpool); return nil })
	led.set("trace.file_fill_us", us(d)/float64(fills))

	app := sc.Stream(1)
	d, _ = bestOf(3, func() error { fills = walkStream(app, pool); return nil })
	led.set("workloads.stream_fill_us", us(d)/float64(fills))
	return nil
}

type discardSink struct{}

func (discardSink) Begin(string, []string)       {}
func (discardSink) Row(string, uint64, []uint64) {}

func microExtras(led *ledger) error {
	cfg := config.Baseline()

	// One SM's registry: its counters, scheduler gauges, L1D and policy.
	reg := metrics.NewRegistry()
	sm.New(cfg, 0, config.PolicyDLP, mem.NewPool()).RegisterMetrics(reg, "sm0")
	reg.Seal()
	led.set("metrics.sample_ns", ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			reg.Sample()
		}
	})))
	sink := metrics.NewJSONLSink(io.Discard)
	sink.Begin("bench", reg.Names())
	row := reg.Sample()
	led.set("metrics.jsonl_row_ns", ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			sink.Row("bench", uint64(i), row)
		}
	})))
	if err := sink.Flush(); err != nil {
		return err
	}

	// A Fig. 10-shaped table: 18 applications, four schemes.
	tab := &report.Table{Title: "bench", Apps: workloads.Abbrs()}
	for _, a := range workloads.All() {
		tab.Classes = append(tab.Classes, a.Class.String())
	}
	for _, p := range policy.Paper() {
		vals := make([]float64, len(tab.Apps))
		for i := range vals {
			vals[i] = 1 + float64(i)/10
		}
		if err := tab.AddSeries(string(p), vals); err != nil {
			return err
		}
	}
	var rerr error
	led.set("report.render_us", us(perOp(func(n int) {
		for i := 0; i < n; i++ {
			if err := tab.Render(io.Discard); err != nil {
				rerr = err
			}
		}
	})))
	if rerr != nil {
		return rerr
	}

	sc, err := workloads.ByAbbr("SC")
	if err != nil {
		return err
	}
	k := sc.Generate()
	d, _ := bestOf(2, func() error { rdd.ProfileKernel(k, cfg.NumSMs, cfg.L1D); return nil })
	led.set("rdd.profile_ms", ms(d))
	return nil
}

func microRunner(ctx context.Context, led *ledger, tmp string) error {
	body := coldRequest(1, 0, 28).body
	var berr error
	led.set("conform.unmarshal_build_us", us(perOp(func(n int) {
		for i := 0; i < n; i++ {
			sp, err := conform.UnmarshalSpec(body)
			if err == nil {
				_, _, _, err = sp.Build()
			}
			if err != nil {
				berr = err
			}
		}
	})))
	if berr != nil {
		return berr
	}
	sp, err := conform.UnmarshalSpec(body)
	if err != nil {
		return err
	}
	cfg, pol, kernel, err := sp.Build()
	if err != nil {
		return err
	}
	st, err := sim.RunOnce(ctx, cfg, pol, kernel, sim.Options{})
	if err != nil {
		return err
	}
	led.set("conform.normalize_us", us(perOp(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := conform.Normalize(st); err != nil {
				berr = err
			}
		}
	})))
	if berr != nil {
		return berr
	}

	// Key digests the whole kernel the first time it sees one (later
	// calls hit a per-pointer memo), so every timed call gets its own.
	const fresh = 8
	jobs := make([]runner.Job, fresh)
	for i := range jobs {
		_, _, k, err := sp.Build()
		if err != nil {
			return err
		}
		jobs[i] = runner.Job{Config: cfg, Policy: pol, Kernel: k}
	}
	t0 := time.Now()
	for i := range jobs {
		if jobs[i].Key() == "" {
			return fmt.Errorf("reference job has no content key")
		}
	}
	led.set("runner.key_us", us(time.Since(t0))/fresh)

	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	mc := runner.NewCache()
	led.set("runner.cache_put_ns", ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			mc.Put(keys[i%len(keys)], st)
		}
	})))
	led.set("runner.cache_get_ns", ns(perOp(func(n int) {
		for i := 0; i < n; i++ {
			mc.Get(keys[i%len(keys)])
		}
	})))

	dir := filepath.Join(tmp, "diskcache")
	dc, err := runner.OpenDiskCache(dir)
	if err != nil {
		return err
	}
	const entries = 64
	t0 = time.Now()
	for i := 0; i < entries; i++ {
		dc.Put(keys[i], st)
	}
	led.set("runner.disk_put_us", us(time.Since(t0))/entries)
	// A second handle has nothing in memory: every Get loads, verifies
	// and re-checks an entry from disk.
	dc2, err := runner.OpenDiskCache(dir)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for i := 0; i < entries; i++ {
		if _, ok := dc2.Get(keys[i]); !ok {
			return fmt.Errorf("disk cache lost entry %d", i)
		}
	}
	led.set("runner.disk_get_us", us(time.Since(t0))/entries)

	// Dispatch overhead: a batch whose simulations are replaced by a
	// constant, so what remains is the pool, events and bookkeeping.
	const batch = 512
	run := &runner.Runner{Workers: suiteWorkers, Intercept: func(context.Context, int, int, runner.Job, runner.SimFunc) (*stats.Stats, error) {
		return st, nil
	}}
	noop := make([]runner.Job, batch)
	for i := range noop {
		noop[i] = runner.Job{Config: cfg, Policy: pol, Kernel: kernel}
	}
	d, err := bestOf(3, func() error {
		_, err := run.Run(ctx, noop)
		return err
	})
	if err != nil {
		return err
	}
	led.set("runner.dispatch_overhead_us", us(d)/batch)
	return nil
}

// microSim is differential timing of sim.New / RunOnce / RunStreamOnce
// on one reference job under DLP at the baseline configuration: a
// serve_cold-sized all-gather kernel, whose misses, stalls and bypasses
// keep the L1D and its policy busy. (A cache-sufficient application such
// as SC runs the same under every policy, within the host's noise.)
func microSim(ctx context.Context, led *ledger) error {
	cfg := config.Baseline()
	spec := gatherSpec(0xbe7c, 8, 8, 28)
	k := spec.Kernel()
	k.PrecomputeCoalesced(cfg.L1D.LineSize)

	d, err := bestOf(5, func() error {
		_, err := sim.New(cfg, config.PolicyDLP, sim.Options{})
		return err
	})
	if err != nil {
		return err
	}
	led.set("sim.new_ms", ms(d))

	var ref *stats.Stats
	eager := func(pol config.Policy, opts sim.Options) (time.Duration, error) {
		return bestOf(5, func() error {
			st, err := sim.RunOnce(ctx, cfg, pol, k, opts)
			if err == nil && pol == config.PolicyDLP {
				ref = st
			}
			return err
		})
	}
	base, err := eager(config.PolicyDLP, sim.Options{})
	if err != nil {
		return err
	}
	led.set("sim.ns_per_cycle", ns(base)/float64(ref.Cycles))
	led.set("sim.ns_per_warp_insn", ns(base)/float64(ref.WarpInsns))

	ratio := func(name string, d time.Duration, over time.Duration) {
		led.set(name, d.Seconds()/over.Seconds())
	}
	variants := []struct {
		name string
		opts sim.Options
	}{
		{"sim.ff_off_ratio", sim.Options{DisableFastForward: true}},
		{"sim.selfcheck_ratio", sim.Options{SelfCheck: true}},
		{"sim.metrics_on_ratio", sim.Options{Metrics: &metrics.Config{Sink: discardSink{}, Label: "bench"}}},
		// On a shared 2-vCPU host this measures the hypervisor's
		// treatment of spinning phase workers (README.md); it is a
		// ledger entry, not a workload, until a host can testify.
		{"sim.cores2_ratio", sim.Options{Cores: 2}},
	}
	for _, v := range variants {
		d, err := eager(config.PolicyDLP, v.opts)
		if err != nil {
			return err
		}
		ratio(v.name, d, base)
	}
	d, err = bestOf(5, func() error {
		_, err := sim.RunStreamOnce(ctx, cfg, config.PolicyDLP, spec.Stream(), sim.Options{})
		return err
	})
	if err != nil {
		return err
	}
	ratio("sim.stream_ratio", d, base)

	baseline, err := eager(config.PolicyBaseline, sim.Options{})
	if err != nil {
		return err
	}
	for _, pol := range policy.All() {
		if pol == config.PolicyBaseline {
			continue
		}
		d := base
		if pol != config.PolicyDLP {
			if d, err = eager(pol, sim.Options{}); err != nil {
				return err
			}
		}
		ratio("sim.policy_ratio."+string(pol), d, baseline)
	}

	allocs, bytes, err := mallocs(func() error {
		_, err := sim.RunOnce(ctx, cfg, config.PolicyDLP, k, sim.Options{})
		return err
	})
	if err != nil {
		return err
	}
	led.set("sim.allocs_per_run", float64(allocs))
	led.set("sim.bytes_per_run", float64(bytes))
	return nil
}
