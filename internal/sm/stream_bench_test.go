package sm

import (
	"path/filepath"
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/trace"
)

// storeBenchStream is storeBench with the warp fed from an on-disk
// trace stream instead of a precomputed block: every restart re-pulls
// the warp's chunk through the FileStream — one ReadAt, a decode into
// the pooled chunk, and per-chunk coalesced-line memoization — so the
// measured round covers the streamed frontend's whole refill + issue
// path, not just the issue tail.
func storeBenchStream(t *testing.T) (s *SM, step func()) {
	cfg := config.Baseline()
	pool := mem.NewPool()
	s = New(cfg, 0, config.PolicyBaseline, pool)
	addrs := make([]addr.Addr, 32)
	for i := range addrs {
		addrs[i] = addr.Addr(i * 4) // 32 lanes, one 128B line
	}
	k := &trace.Kernel{Name: "store", Blocks: []*trace.Block{
		{Warps: []*trace.WarpTrace{{Instrs: []trace.Instr{trace.NewStore(1, addrs)}}}},
	}}
	path := filepath.Join(t.TempDir(), "store.dlpstrm")
	if err := trace.WriteFile(path, trace.NewKernelStream(k), 8); err != nil {
		t.Fatal(err)
	}
	fs, err := trace.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	s.AssignStream(fs, 0)
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
		// Restart the warp: its chunk goes back to the pool and comes
		// straight out again.
		cur := &s.slots[0].cur
		cur.Release()
		cur.InitStream(fs, s.chunks, cfg.L1D.LineSize, 0, 0)
		s.noteCursor(s.slots[0])
		s.wakeSchedulers()
		tick() // issue
		tick() // drain
	}
	return s, step
}

// TestIssueStorePathStreamAllocs pins the stream-backed LD/ST issue
// path allocation-free in steady state: chunk refills come from the
// per-SM chunk pool (reusing the chunk's instruction, address, line and
// read buffers), and everything downstream matches the precomputed
// path.
func TestIssueStorePathStreamAllocs(t *testing.T) {
	_, step := storeBenchStream(t)
	for i := 0; i < 64; i++ {
		step() // settle free-list, buffer and queue capacities
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("stream LD/ST issue path allocates %.2f per round, want 0", avg)
	}
}
