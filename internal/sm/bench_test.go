package sm

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/trace"
)

// storeBench builds an SM with one resident warp holding a single
// 32-lane store (one coalesced line) and issues it once so every free
// list is primed. The returned step function runs one full issue+drain
// round: re-issue the store, push it through the L1D, and recycle the
// request — the complete LD/ST issue path.
func storeBench() (s *SM, step func()) {
	cfg := config.Baseline()
	pool := mem.NewPool()
	s = New(cfg, 0, config.PolicyBaseline, pool)
	addrs := make([]addr.Addr, 32)
	for i := range addrs {
		addrs[i] = addr.Addr(i * 4) // 32 lanes, one 128B line
	}
	tr := &trace.WarpTrace{Instrs: []trace.Instr{trace.NewStore(1, addrs)}}
	s.AssignBlock(&trace.Block{Warps: []*trace.WarpTrace{tr}})
	now := uint64(0)
	tick := func() {
		now++
		s.Tick(now)
		for {
			r := s.L1D().PopOutgoing()
			if r == nil {
				break
			}
			pool.Put(r)
		}
	}
	tick() // admit + issue
	tick() // drain; primes the memInstr/request free lists
	step = func() {
		// Rewind the warp so it issues the same store again. The rewind
		// itself is not a tracked scheduler event, so wake explicitly.
		s.slots[0].cur.Rewind()
		s.noteCursor(s.slots[0])
		s.wakeSchedulers()
		tick() // issue
		tick() // drain
	}
	return s, step
}

// BenchmarkIssueStorePath measures the steady-state LD/ST issue path:
// scheduler pick, coalescing, pooled request construction, and the L1D
// store drain. allocs/op must be 0 (see TestIssueStorePathAllocs).
func BenchmarkIssueStorePath(b *testing.B) {
	b.ReportAllocs()
	_, step := storeBench()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestIssueStorePathAllocs pins the LD/ST issue path allocation-free in
// steady state: every request comes from the pool, every memInstr from
// the SM's free list, and the coalescer writes into a reused buffer.
func TestIssueStorePathAllocs(t *testing.T) {
	_, step := storeBench()
	for i := 0; i < 64; i++ {
		step() // settle free-list and queue capacities
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("LD/ST issue path allocates %.2f per round, want 0", avg)
	}
}

// pickBench builds the scheduler's bad case, the shape CFD and KM
// present for most of their run: 48 resident warps, 42 of them waiting
// on memory. Of the three unblocked warps each scheduler owns, the one
// it issued from last is still inside its issue latency, so the greedy
// check fails and the full scan runs — past 21 memory-blocked slots —
// to return the older of the other two. The pick mutates nothing, so
// the returned step can be called forever.
func pickBench(tb testing.TB) (s *SM, step func() int) {
	cfg := config.Baseline()
	s = New(cfg, 0, config.PolicyBaseline, mem.NewPool())
	blk := &trace.Block{}
	for w := 0; w < cfg.MaxWarpsPerSM; w++ {
		blk.Warps = append(blk.Warps, computeWarp(4, 8))
	}
	s.AssignBlock(blk)
	s.now = 10
	if !s.admitBlocks() || s.liveWarps != 48 || cfg.SchedulersPerSM != 2 {
		tb.Fatal("want 48 resident warps under 2 schedulers")
	}
	blockedWarps := 0
	for slot, w := range s.slots {
		switch {
		case slot >= 40 && slot < 42: // one greedy warp per scheduler, mid-latency
			s.busyUntil[slot] = s.now + 5
			s.greedy[slot%2] = slot
		case slot >= 20 && slot < 24: // two ready warps per scheduler
		default:
			w.outstanding = 1
			s.setBlocked(w)
			blockedWarps++
		}
	}
	if err := s.CheckActivity(); err != nil || blockedWarps < 40 {
		tb.Fatalf("%d memory-blocked warps, CheckActivity: %v", blockedWarps, err)
	}
	sched := 0
	return s, func() int {
		sched ^= 1
		return s.pickWarp(sched)
	}
}

var pickSink int

// BenchmarkPickWarp measures one warp-scheduler pick over a full SM
// whose warps are mostly waiting on memory. allocs/op must be 0 (see
// TestPickWarpAllocs).
func BenchmarkPickWarp(b *testing.B) {
	b.ReportAllocs()
	_, step := pickBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pickSink += step()
	}
}

// TestPickWarpAllocs pins the pick allocation-free and checks that the
// benchmark measures what it says: the scan, not the greedy shortcut.
func TestPickWarpAllocs(t *testing.T) {
	_, step := pickBench(t)
	for i := 0; i < 4; i++ {
		if got, want := step(), 20+(i+1)%2; got != want {
			t.Fatalf("pick %d chose slot %d, want the oldest ready slot %d", i, got, want)
		}
	}
	if avg := testing.AllocsPerRun(200, func() { pickSink += step() }); avg != 0 {
		t.Errorf("warp pick allocates %.2f per call, want 0", avg)
	}
}
