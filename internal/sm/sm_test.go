package sm

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/prng"
	"repro/internal/trace"
)

// runAlone steps the SM with a perfect zero-latency memory behind the
// L1D until Done or the cycle budget runs out; returns cycles used.
func runAlone(t *testing.T, s *SM, budget int) uint64 {
	t.Helper()
	for now := uint64(1); now <= uint64(budget); now++ {
		s.Tick(now)
		for {
			out := s.L1D().PopOutgoing()
			if out == nil {
				break
			}
			if !out.Store {
				s.L1D().OnResponse(out)
			}
		}
		if s.Done() {
			return now
		}
	}
	t.Fatalf("SM did not finish in %d cycles", budget)
	return 0
}

func seqLoad(pc uint32, line int) trace.Instr {
	return trace.NewLoad(pc, []addr.Addr{addr.Addr(line * 128)})
}

func computeWarp(n, latency int) *trace.WarpTrace {
	w := &trace.WarpTrace{}
	for i := 0; i < n; i++ {
		w.Instrs = append(w.Instrs, trace.NewCompute(uint32(i), latency, 32))
	}
	return w
}

func TestComputeOnlyWarpCompletes(t *testing.T) {
	cfg := config.Baseline()
	s := New(cfg, 0, config.PolicyBaseline, nil)
	s.AssignBlock(&trace.Block{Warps: []*trace.WarpTrace{computeWarp(10, 4)}})
	cycles := runAlone(t, s, 1000)
	st := s.Stats()
	if st.WarpInsns != 10 {
		t.Errorf("WarpInsns = %d, want 10", st.WarpInsns)
	}
	if st.Instructions != 320 {
		t.Errorf("Instructions = %d, want 320", st.Instructions)
	}
	// 10 dependent instructions of latency 4: at least 40 cycles.
	if cycles < 40 {
		t.Errorf("finished in %d cycles, violates dependency latency", cycles)
	}
}

func TestTwoWarpsOverlapLatency(t *testing.T) {
	cfg := config.Baseline()
	one := New(cfg, 0, config.PolicyBaseline, nil)
	one.AssignBlock(&trace.Block{Warps: []*trace.WarpTrace{computeWarp(50, 8)}})
	soloCycles := runAlone(t, one, 10000)

	two := New(cfg, 0, config.PolicyBaseline, nil)
	two.AssignBlock(&trace.Block{Warps: []*trace.WarpTrace{
		computeWarp(50, 8), computeWarp(50, 8),
	}})
	dualCycles := runAlone(t, two, 10000)
	// The second warp hides in the first's latency: far less than 2x.
	if dualCycles > soloCycles+soloCycles/4 {
		t.Errorf("two warps took %d cycles vs %d solo: no latency hiding", dualCycles, soloCycles)
	}
}

func TestLoadRoundTrip(t *testing.T) {
	cfg := config.Baseline()
	s := New(cfg, 0, config.PolicyBaseline, nil)
	w := &trace.WarpTrace{Instrs: []trace.Instr{
		seqLoad(0, 1),
		seqLoad(1, 1), // second load hits in L1D
	}}
	s.AssignBlock(&trace.Block{Warps: []*trace.WarpTrace{w}})
	runAlone(t, s, 1000)
	st := s.L1D().Stats()
	if st.L1DAccesses != 2 || st.L1DMisses != 1 || st.L1DHits != 1 {
		t.Errorf("accesses/misses/hits = %d/%d/%d", st.L1DAccesses, st.L1DMisses, st.L1DHits)
	}
}

func TestCoalescedLoadCountsLines(t *testing.T) {
	cfg := config.Baseline()
	s := New(cfg, 0, config.PolicyBaseline, nil)
	// 32 lanes across 4 lines.
	addrs := make([]addr.Addr, 32)
	for i := range addrs {
		addrs[i] = addr.Addr(i * 16)
	}
	w := &trace.WarpTrace{Instrs: []trace.Instr{trace.NewLoad(0, addrs)}}
	s.AssignBlock(&trace.Block{Warps: []*trace.WarpTrace{w}})
	runAlone(t, s, 1000)
	if got := s.L1D().Stats().L1DAccesses; got != 4 {
		t.Errorf("L1D accesses = %d, want 4 coalesced lines", got)
	}
}

func TestStoreDoesNotBlockWarp(t *testing.T) {
	cfg := config.Baseline()
	s := New(cfg, 0, config.PolicyBaseline, nil)
	w := &trace.WarpTrace{Instrs: []trace.Instr{
		trace.NewStore(0, []addr.Addr{0}),
		trace.NewCompute(1, 2, 32),
	}}
	s.AssignBlock(&trace.Block{Warps: []*trace.WarpTrace{w}})
	cycles := runAlone(t, s, 100)
	if cycles > 20 {
		t.Errorf("store stalled the warp: %d cycles", cycles)
	}
	if got := s.L1D().Stats().StoreAccesses; got != 1 {
		t.Errorf("StoreAccesses = %d", got)
	}
}

func TestBlockAdmissionRespectsCapacity(t *testing.T) {
	cfg := config.Baseline()
	cfg.MaxWarpsPerSM = 2
	s := New(cfg, 0, config.PolicyBaseline, nil)
	// Three blocks of 2 warps each: only one resident at a time.
	for i := 0; i < 3; i++ {
		s.AssignBlock(&trace.Block{Warps: []*trace.WarpTrace{
			computeWarp(5, 2), computeWarp(5, 2),
		}})
	}
	runAlone(t, s, 10000)
	if got := s.Stats().WarpInsns; got != 30 {
		t.Errorf("WarpInsns = %d, want 30 (all blocks ran)", got)
	}
}

func TestOversizedBlockNeverAdmitted(t *testing.T) {
	cfg := config.Baseline()
	cfg.MaxWarpsPerSM = 1
	s := New(cfg, 0, config.PolicyBaseline, nil)
	s.AssignBlock(&trace.Block{Warps: []*trace.WarpTrace{
		computeWarp(1, 1), computeWarp(1, 1),
	}})
	for now := uint64(1); now < 100; now++ {
		s.Tick(now)
	}
	if s.Done() {
		t.Error("SM claims Done with an unadmittable block")
	}
	if s.Stats().WarpInsns != 0 {
		t.Error("oversized block partially executed")
	}
}

func TestGTOPrefersOldestWarp(t *testing.T) {
	cfg := config.Baseline()
	cfg.SchedulersPerSM = 1
	s := New(cfg, 0, config.PolicyBaseline, nil)
	// Warp 0 (older) and warp 1 (younger), both always ready.
	s.AssignBlock(&trace.Block{Warps: []*trace.WarpTrace{
		computeWarp(3, 1), computeWarp(3, 1),
	}})
	s.Tick(1)
	// After one cycle exactly one instruction issued, and it must belong
	// to the oldest warp (slot 0): its pc advanced.
	if s.Stats().WarpInsns != 1 {
		t.Fatalf("issued %d instructions in one cycle with 1 scheduler", s.Stats().WarpInsns)
	}
	if s.slots[0].cur.Index() != 1 || s.slots[1].cur.Index() != 0 {
		t.Errorf("GTO issued from warp %v, want oldest (slot 0): pcs=%d,%d",
			s.slots[1].cur.Index() == 1, s.slots[0].cur.Index(), s.slots[1].cur.Index())
	}
}

func TestDualSchedulersIssueTwoPerCycle(t *testing.T) {
	cfg := config.Baseline()
	s := New(cfg, 0, config.PolicyBaseline, nil)
	s.AssignBlock(&trace.Block{Warps: []*trace.WarpTrace{
		computeWarp(10, 1), computeWarp(10, 1), computeWarp(10, 1), computeWarp(10, 1),
	}})
	s.Tick(1)
	if got := s.Stats().WarpInsns; got != 2 {
		t.Errorf("issued %d warp instructions in one cycle, want 2 (dual schedulers)", got)
	}
}

func TestMemResponseForIdleWarpPanics(t *testing.T) {
	cfg := config.Baseline()
	s := New(cfg, 0, config.PolicyBaseline, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on orphan response")
		}
	}()
	s.onMemResponse(&mem.Request{Warp: 3})
}

func TestWarpThrottleLimitsConcurrency(t *testing.T) {
	cfg := config.Baseline()
	cfg.SchedulersPerSM = 2
	cfg.MaxActiveWarps = 1
	s := New(cfg, 0, config.PolicyBaseline, nil)
	s.AssignBlock(&trace.Block{Warps: []*trace.WarpTrace{
		computeWarp(10, 1), computeWarp(10, 1), computeWarp(10, 1),
	}})
	s.Tick(1)
	// Only the oldest warp may issue, so despite two schedulers only one
	// instruction goes out per cycle.
	if got := s.Stats().WarpInsns; got != 1 {
		t.Errorf("issued %d instructions with a 1-warp throttle", got)
	}
	// The throttle follows retirement: eventually all warps finish.
	runAlone(t, s, 1000)
	if got := s.Stats().WarpInsns; got != 30 {
		t.Errorf("WarpInsns = %d, want 30", got)
	}
}

func TestWarpThrottleDisabledByDefault(t *testing.T) {
	cfg := config.Baseline()
	s := New(cfg, 0, config.PolicyBaseline, nil)
	s.AssignBlock(&trace.Block{Warps: []*trace.WarpTrace{
		computeWarp(10, 1), computeWarp(10, 1), computeWarp(10, 1), computeWarp(10, 1),
	}})
	s.Tick(1)
	if got := s.Stats().WarpInsns; got != 2 {
		t.Errorf("issued %d instructions, want 2 (dual schedulers, no throttle)", got)
	}
}

func TestLRRRotatesThroughWarps(t *testing.T) {
	cfg := config.Baseline()
	cfg.SchedulersPerSM = 1
	cfg.Scheduler = config.SchedLRR
	s := New(cfg, 0, config.PolicyBaseline, nil)
	s.AssignBlock(&trace.Block{Warps: []*trace.WarpTrace{
		computeWarp(4, 1), computeWarp(4, 1), computeWarp(4, 1),
	}})
	// With latency-1 computes all three warps stay ready; LRR must visit
	// warp 0, 1, 2, 0 over the first four cycles.
	want := []int{1, 1, 1, 2} // expected pc of slot 0 after each tick? track issues instead
	_ = want
	order := []int{}
	pcs := []int{0, 0, 0}
	for now := uint64(1); now <= 6; now++ {
		s.Tick(now)
		for slot := 0; slot < 3; slot++ {
			if s.slots[slot] != nil && s.slots[slot].cur.Index() != pcs[slot] {
				order = append(order, slot)
				pcs[slot] = s.slots[slot].cur.Index()
			}
		}
	}
	wantOrder := []int{0, 1, 2, 0, 1, 2}
	if len(order) < len(wantOrder) {
		t.Fatalf("issue order %v too short", order)
	}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("LRR issue order %v, want prefix %v", order, wantOrder)
		}
	}
}

func TestLRRCompletesKernel(t *testing.T) {
	cfg := config.Baseline()
	cfg.Scheduler = config.SchedLRR
	s := New(cfg, 0, config.PolicyBaseline, nil)
	s.AssignBlock(&trace.Block{Warps: []*trace.WarpTrace{
		computeWarp(10, 3), computeWarp(10, 3),
		{Instrs: []trace.Instr{seqLoad(0, 1), seqLoad(1, 2), seqLoad(2, 1)}},
	}})
	runAlone(t, s, 5000)
	if got := s.Stats().WarpInsns; got != 23 {
		t.Errorf("WarpInsns = %d, want 23", got)
	}
}

func TestSchedPolicyString(t *testing.T) {
	if config.SchedGTO.String() != "GTO" || config.SchedLRR.String() != "LRR" {
		t.Error("SchedPolicy strings wrong")
	}
	if config.SchedPolicy(9).String() != "SchedPolicy(9)" {
		t.Error("unknown SchedPolicy string wrong")
	}
}

// The reference pick: the slot-sweep scan the SM used before its
// scheduling state moved into arrays and age-ordered masks, kept here as
// the specification the position scan is tested against. Everything that has
// a first-principles source is read from it — blocked-ness from the
// warp's cursor, outstanding count and inLDST flag, the instruction
// kind from the cursor, occupancy and the throttle from sweeping
// s.slots — and never from the ready/finished bits or the position
// tables. busyUntil and age have no other home than the arrays.
// Each function returns the pick and the sleep bound the scan leaves
// behind, and mutates nothing.

func refWarpActive(s *SM, w *warp) bool {
	limit := s.cfg.MaxActiveWarps
	if limit <= 0 {
		return true
	}
	older := 0
	for _, other := range s.slots {
		if other != nil && other != w && s.age[other.slot] < s.age[w.slot] {
			older++
		}
	}
	return older < limit
}

func refIssuable(s *SM, w *warp) bool {
	if w == nil || w.cur.Exhausted() || s.busyUntil[w.slot] > s.now ||
		w.outstanding != 0 || w.inLDST {
		return false
	}
	if !refWarpActive(s, w) {
		return false
	}
	return s.ldst.Len() < s.ldstCap || w.cur.Cur().Kind == trace.Compute
}

func refPick(s *SM, sched int) (slot int, sleep uint64) {
	sleep = s.schedSleepUntil[sched]
	if s.now < sleep {
		return -1, sleep
	}
	n := s.cfg.SchedulersPerSM
	if s.cfg.Scheduler == config.SchedLRR {
		count := 0
		for slot := sched; slot < len(s.slots); slot += n {
			count++
		}
		if count == 0 {
			// A scheduler that owns no slot. The sweep used to return
			// without touching the bound; "never" says the same thing
			// (nothing will ever wake it) and is what a scan over an
			// empty mask derives.
			return -1, never
		}
		last := -1
		if g := s.greedy[sched]; g >= 0 {
			last = (g - sched) / n
		}
		nextReady := never
		for i := 1; i <= count; i++ {
			slot := sched + ((last+i)%count)*n
			w := s.slots[slot]
			if w == nil || w.outstanding != 0 || w.inLDST || w.cur.Exhausted() {
				continue
			}
			if bu := s.busyUntil[slot]; bu > s.now {
				if bu < nextReady {
					nextReady = bu
				}
				continue
			}
			if !refWarpActive(s, w) {
				continue
			}
			if s.ldst.Len() >= s.ldstCap && w.cur.Cur().Kind != trace.Compute {
				continue
			}
			return slot, sleep
		}
		return -1, nextReady
	}
	if g := s.greedy[sched]; g >= 0 && refIssuable(s, s.slots[g]) {
		return g, sleep
	}
	best := -1
	var bestAge uint64
	nextReady := never
	for slot := sched; slot < len(s.slots); slot += n {
		w := s.slots[slot]
		if w == nil || w.outstanding != 0 || w.inLDST || w.cur.Exhausted() {
			continue
		}
		if bu := s.busyUntil[slot]; bu > s.now {
			if bu < nextReady {
				nextReady = bu
			}
			continue
		}
		if !refWarpActive(s, w) {
			continue
		}
		if s.ldst.Len() >= s.ldstCap && w.cur.Cur().Kind != trace.Compute {
			continue
		}
		if best < 0 || s.age[slot] < bestAge {
			best = slot
			bestAge = s.age[slot]
		}
	}
	if best < 0 {
		return -1, nextReady
	}
	return best, sleep
}

// pickKernel builds random blocks sized for an SM with maxWarps slots:
// short and long compute latencies, one- to three-line loads over a
// footprint small enough to hit and large enough to miss, and stores.
func pickKernel(rng *prng.Source, maxWarps int) *trace.Kernel {
	k := &trace.Kernel{Name: "pick"}
	lines := func() []addr.Addr {
		out := make([]addr.Addr, 1+rng.Intn(3))
		for i := range out {
			out[i] = addr.Addr(rng.Intn(96) * 128)
		}
		return out
	}
	for b := 0; b < 14; b++ {
		blk := &trace.Block{}
		for w := 1 + rng.Intn(min(maxWarps, 12)); w > 0; w-- {
			wt := &trace.WarpTrace{}
			for i := 3 + rng.Intn(30); i > 0; i-- {
				pc := uint32(rng.Intn(16))
				switch rng.Intn(8) {
				case 0, 1, 2:
					wt.Instrs = append(wt.Instrs, trace.NewCompute(pc, 1+rng.Intn(3), 32))
				case 3:
					wt.Instrs = append(wt.Instrs, trace.NewCompute(pc, 8+rng.Intn(40), 32))
				case 4:
					wt.Instrs = append(wt.Instrs, trace.NewStore(pc, lines()))
				default:
					wt.Instrs = append(wt.Instrs, trace.NewLoad(pc, lines()))
				}
			}
			blk.Warps = append(blk.Warps, wt)
		}
		k.Blocks = append(k.Blocks, blk)
	}
	return k
}

// churnKernel builds many short blocks, so that warps are admitted and
// retired fast enough for every scheduler to run out of positions over
// and over.
func churnKernel(rng *prng.Source, maxWarps int) *trace.Kernel {
	k := &trace.Kernel{Name: "churn"}
	for b := 0; b < 280; b++ {
		blk := &trace.Block{}
		for w := 1 + rng.Intn(min(maxWarps, 4)); w > 0; w-- {
			wt := &trace.WarpTrace{}
			for i := 2 + rng.Intn(4); i > 0; i-- {
				pc := uint32(rng.Intn(16))
				switch rng.Intn(6) {
				case 0, 1, 2:
					wt.Instrs = append(wt.Instrs, trace.NewCompute(pc, 1+rng.Intn(12), 32))
				case 3:
					wt.Instrs = append(wt.Instrs, trace.NewStore(pc, []addr.Addr{addr.Addr(rng.Intn(96) * 128)}))
				default:
					wt.Instrs = append(wt.Instrs, trace.NewLoad(pc, []addr.Addr{addr.Addr(rng.Intn(96) * 128)}))
				}
			}
			blk.Warps = append(blk.Warps, wt)
		}
		k.Blocks = append(k.Blocks, blk)
	}
	return k
}

// TestPickMatchesReferenceScan drives random kernels through an SM
// whose memory answers after a random delay, re-running Tick's stages
// by hand so that every scheduler's every pick can be compared with the
// reference scan on exactly the state the pick saw: same slot, same
// resulting sleep bound. CheckActivity runs every cycle on top, so the
// position tables and bits are also re-derived from the warps
// throughout. The churn leg does the same while short blocks come and
// go until every scheduler has compacted its position space at least
// three times.
func TestPickMatchesReferenceScan(t *testing.T) {
	for _, sched := range []config.SchedPolicy{config.SchedGTO, config.SchedLRR} {
		for _, active := range []int{0, 3} {
			for _, nsched := range []int{1, 2, 3} {
				for _, maxWarps := range []int{1, 48, 70} { // 70: a second bitset word
					newCfg := func() *config.Config {
						cfg := config.Baseline()
						cfg.Scheduler = sched
						cfg.MaxActiveWarps = active
						cfg.SchedulersPerSM = nsched
						cfg.MaxWarpsPerSM = maxWarps
						return cfg
					}
					name := fmt.Sprintf("%v/active%d/sched%d/warps%d", sched, active, nsched, maxWarps)
					for _, ldstCap := range []int{48, 2} {
						for _, streamed := range []bool{false, true} {
							t.Run(fmt.Sprintf("%s/ldst%d/streamed=%v", name, ldstCap, streamed), func(t *testing.T) {
								cfg := newCfg()
								rng := prng.New(uint64(maxWarps*1000 + nsched*100 + ldstCap))
								checkPicks(t, cfg, ldstCap, streamed, rng, pickKernel(rng, maxWarps))
							})
						}
					}
					t.Run(name+"/churn", func(t *testing.T) {
						cfg := newCfg()
						rng := prng.New(uint64(maxWarps*1000 + nsched*100))
						compactions := checkPicks(t, cfg, 48, false, rng, churnKernel(rng, maxWarps))
						for k, n := range compactions {
							if k < maxWarps && n < 3 { // a scheduler past the last slot owns none
								t.Errorf("scheduler %d compacted its positions %d times, want at least 3", k, n)
							}
						}
					})
				}
			}
		}
	}
}

// checkPicks runs k to completion on an SM built from cfg, comparing
// every pick with the reference, and returns how often each scheduler
// compacted its position space (the only time nextPos goes down).
func checkPicks(t *testing.T, cfg *config.Config, ldstCap int, streamed bool, rng *prng.Source, k *trace.Kernel) (compactions []int) {
	want := uint64(0)
	for _, b := range k.Blocks {
		for _, w := range b.Warps {
			want += uint64(len(w.Instrs))
		}
	}
	s := New(cfg, 0, config.PolicyBaseline, nil)
	s.ldstCap = ldstCap
	if streamed {
		// A real chunked stream: 4-instruction windows, so cursors
		// refill mid-warp.
		path := filepath.Join(t.TempDir(), "pick.dlpstrm")
		if err := trace.WriteFile(path, trace.NewKernelStream(k), 4); err != nil {
			t.Fatal(err)
		}
		fs, err := trace.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		for b := range k.Blocks {
			s.AssignStream(fs, b)
		}
	} else {
		for _, b := range k.Blocks {
			s.AssignBlock(b)
		}
	}

	type flight struct {
		due uint64
		req *mem.Request
	}
	var inFlight []flight
	picks := 0
	compactions, lastNext := make([]int, cfg.SchedulersPerSM), make([]int, cfg.SchedulersPerSM)
	for now := uint64(1); ; now++ {
		if now > 200000 {
			t.Fatalf("not done after %d cycles (%d of %d warp instructions)", now, s.st.WarpInsns, want)
		}
		// Memory responses due this cycle, oldest first.
		rest := inFlight[:0]
		for _, f := range inFlight {
			if f.due <= now {
				s.l1d.OnResponse(f.req)
			} else {
				rest = append(rest, f)
			}
		}
		inFlight = rest

		// Tick, stage by stage, with the issue stage opened up.
		s.now = now
		s.l1d.Tick(now)
		s.retireWarps()
		if s.pendingBlocks.Len() > 0 {
			copy(lastNext, s.nextPos)
			s.admitBlocks()
			for k, next := range s.nextPos {
				if next < lastNext[k] {
					compactions[k]++
				}
			}
		}
		if s.ldst.Len() > 0 {
			s.tickLDST()
		}
		for sched := 0; s.liveWarps > 0 && sched < cfg.SchedulersPerSM; sched++ {
			wantSlot, wantSleep := refPick(s, sched)
			got := s.pickWarp(sched)
			if got != wantSlot || s.schedSleepUntil[sched] != wantSleep {
				t.Fatalf("cycle %d scheduler %d: picked slot %d, sleep until %d; reference slot %d, sleep until %d",
					now, sched, got, s.schedSleepUntil[sched], wantSlot, wantSleep)
			}
			if got >= 0 {
				s.issueFrom(s.slots[got])
				s.greedy[sched] = got
				picks++
			}
		}
		if err := s.CheckActivity(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}

		for out := s.l1d.PopOutgoing(); out != nil; out = s.l1d.PopOutgoing() {
			if !out.Store {
				inFlight = append(inFlight, flight{due: now + 1 + uint64(rng.Intn(60)), req: out})
			}
		}
		if s.Done() && len(inFlight) == 0 {
			break
		}
	}
	if s.st.WarpInsns != want || uint64(picks) != want {
		t.Errorf("issued %d warp instructions over %d picks, kernel has %d", s.st.WarpInsns, picks, want)
	}
	return compactions
}

// TestCheckActivityCatchesPositionCorruption breaks each position-space
// invariant by hand on an SM with eight resident warps under one
// scheduler (positions 0..7, the warp at position 3 waiting on memory)
// and requires CheckActivity to notice; after each repair it must pass
// again.
func TestCheckActivityCatchesPositionCorruption(t *testing.T) {
	cfg := config.Baseline()
	cfg.SchedulersPerSM = 1
	s := New(cfg, 0, config.PolicyBaseline, nil)
	blk := &trace.Block{}
	for w := 0; w < 8; w++ {
		blk.Warps = append(blk.Warps, computeWarp(4, 8))
	}
	s.AssignBlock(blk)
	s.now = 1
	s.admitBlocks()
	s.slots[3].outstanding = 1
	s.setBlocked(s.slots[3])

	for _, c := range []struct {
		name            string
		corrupt, repair func()
	}{
		{"a dead position that is ready",
			func() { s.ready[0] |= 1 << 20 }, func() { s.ready[0] &^= 1 << 20 }},
		{"a blocked warp that is ready",
			func() { s.ready[0] |= 1 << 3 }, func() { s.ready[0] &^= 1 << 3 }},
		{"an unblocked warp that is not ready",
			func() { s.ready[0] &^= 1 << 5 }, func() { s.ready[0] |= 1 << 5 }},
		{"two warps out of age order",
			func() {
				s.pos2slot[1], s.pos2slot[2] = 2, 1
				s.slot2pos[1], s.slot2pos[2] = 2, 1
			}, func() {
				s.pos2slot[1], s.pos2slot[2] = 1, 2
				s.slot2pos[1], s.slot2pos[2] = 1, 2
			}},
		{"a slot that points at another's position",
			func() { s.slot2pos[6] = 7 }, func() { s.slot2pos[6] = 6 }},
		{"a position that points at an empty slot",
			func() { s.pos2slot[30] = 40 }, func() { s.pos2slot[30] = -1 }},
		{"a live position past the next to hand out",
			func() { s.nextPos[0] = 7 }, func() { s.nextPos[0] = 8 }},
		{"an empty slot with a position",
			func() { s.slot2pos[40] = 9 }, func() { s.slot2pos[40] = -1 }},
	} {
		if err := s.CheckActivity(); err != nil {
			t.Fatalf("before %q: %v", c.name, err)
		}
		c.corrupt()
		if err := s.CheckActivity(); err == nil {
			t.Errorf("%s went unnoticed", c.name)
		}
		c.repair()
	}
	if err := s.CheckActivity(); err != nil {
		t.Fatalf("after the last repair: %v", err)
	}
}
