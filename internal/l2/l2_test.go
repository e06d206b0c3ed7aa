package l2

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/prng"
	"repro/internal/stats"
)

func newPart() (*Partition, *stats.Stats) {
	st := &stats.Stats{}
	return New(config.Baseline(), st, nil), st
}

// run advances the partition until a response appears or maxCycles pass.
func run(p *Partition, from uint64, maxCycles int) (*mem.Request, uint64) {
	for i := 0; i < maxCycles; i++ {
		now := from + uint64(i)
		p.Tick(now)
		if r := p.PopResponse(); r != nil {
			return r, now
		}
	}
	return nil, from + uint64(maxCycles)
}

func TestMissGoesToDRAMThenHit(t *testing.T) {
	p, st := newPart()
	r1 := &mem.Request{ID: 1, Addr: 0x1000}
	p.Enqueue(r1)
	resp, missCycle := run(p, 0, 1000)
	if resp != r1 {
		t.Fatal("no response to first read")
	}
	if st.L2Misses != 1 || st.DRAMReads != 1 {
		t.Errorf("misses/dramReads = %d/%d", st.L2Misses, st.DRAMReads)
	}
	// Second read of the same line: L2 hit, no more DRAM traffic, and a
	// much shorter latency.
	r2 := &mem.Request{ID: 2, Addr: 0x1000}
	p.Enqueue(r2)
	resp2, hitCycle := run(p, missCycle+1, 1000)
	if resp2 != r2 {
		t.Fatal("no response to second read")
	}
	if st.L2Hits != 1 || st.DRAMReads != 1 {
		t.Errorf("hits/dramReads = %d/%d", st.L2Hits, st.DRAMReads)
	}
	if hitLat, missLat := hitCycle-missCycle-1, missCycle; hitLat >= missLat {
		t.Errorf("hit latency %d not shorter than miss latency %d", hitLat, missLat)
	}
}

func TestOutstandingMissesMerge(t *testing.T) {
	p, st := newPart()
	r1 := &mem.Request{ID: 1, Addr: 0x2000}
	r2 := &mem.Request{ID: 2, Addr: 0x2000}
	p.Enqueue(r1)
	p.Tick(0) // services r1, starts DRAM
	p.Enqueue(r2)
	p.Tick(1) // r2 merges
	if st.DRAMReads != 1 {
		t.Fatalf("DRAMReads = %d, want 1 (merged)", st.DRAMReads)
	}
	got := map[uint64]bool{}
	for now := uint64(2); now < 1000 && len(got) < 2; now++ {
		p.Tick(now)
		for r := p.PopResponse(); r != nil; r = p.PopResponse() {
			got[r.ID] = true
		}
	}
	if !got[1] || !got[2] {
		t.Errorf("merged requests not all answered: %v", got)
	}
}

func TestStoreHitMarksDirtyStoreMissForwards(t *testing.T) {
	p, st := newPart()
	// Warm a line.
	p.Enqueue(&mem.Request{ID: 1, Addr: 0x3000})
	if r, _ := run(p, 0, 1000); r == nil {
		t.Fatal("warmup failed")
	}
	dramWritesBefore := st.DRAMWrites
	// Store hit: absorbed by L2.
	p.Enqueue(&mem.Request{ID: 2, Addr: 0x3000, Store: true})
	p.Tick(2000)
	if st.DRAMWrites != dramWritesBefore {
		t.Errorf("store hit went to DRAM")
	}
	// Store miss: forwarded.
	p.Enqueue(&mem.Request{ID: 3, Addr: 0x9000, Store: true})
	p.Tick(2001)
	if st.DRAMWrites != dramWritesBefore+1 {
		t.Errorf("store miss not forwarded to DRAM: %d", st.DRAMWrites)
	}
	// Stores never produce responses.
	if r := p.PopResponse(); r != nil {
		t.Errorf("store produced a response: %v", r)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := config.Baseline()
	cfg.L2 = config.CacheGeom{Sets: 1, Ways: 2, LineSize: 128, Hashed: false}
	st := &stats.Stats{}
	p := New(cfg, st, nil)

	fill := func(a addr.Addr) {
		p.Enqueue(&mem.Request{Addr: a})
		if r, _ := run(p, 0, 5000); r == nil {
			panic("fill failed")
		}
	}
	fill(0)
	fill(128)
	// Dirty line 0.
	p.Enqueue(&mem.Request{Addr: 0, Store: true})
	p.Tick(10000)
	writesBefore := st.DRAMWrites
	// Touch line 128 so line 0 stays LRU... line 0 was just touched by the
	// store; touch 128 afterwards to make 0 the LRU victim.
	p.Enqueue(&mem.Request{Addr: 128})
	for now := uint64(10001); now < 12000; now++ {
		p.Tick(now)
		if p.PopResponse() != nil {
			break
		}
	}
	// Fill a third line: evicts dirty line 0 -> writeback.
	p.Enqueue(&mem.Request{Addr: 256})
	if r, _ := run(p, 12000, 5000); r == nil {
		t.Fatal("third fill failed")
	}
	if st.DRAMWrites != writesBefore+1 {
		t.Errorf("dirty eviction did not write back: %d vs %d", st.DRAMWrites, writesBefore)
	}
}

func TestMSHRFullBlocksService(t *testing.T) {
	cfg := config.Baseline()
	cfg.L2MSHRs = 1
	st := &stats.Stats{}
	p := New(cfg, st, nil)
	p.Enqueue(&mem.Request{ID: 1, Addr: 0x1000})
	p.Tick(0) // takes the only MSHR
	p.Enqueue(&mem.Request{ID: 2, Addr: 0x2000})
	p.Tick(1) // cannot service: MSHR full
	if st.DRAMReads != 1 {
		t.Errorf("second miss serviced despite full MSHR: %d DRAM reads", st.DRAMReads)
	}
	// After the first fill completes the second proceeds.
	for now := uint64(2); now < 2000; now++ {
		p.Tick(now)
	}
	if st.DRAMReads != 2 {
		t.Errorf("second miss never serviced: %d DRAM reads", st.DRAMReads)
	}
	if st.L2Accesses != 2 {
		t.Errorf("L2Accesses = %d, want 2 (retries not double-counted)", st.L2Accesses)
	}
}

func TestPending(t *testing.T) {
	p, _ := newPart()
	if p.Pending() {
		t.Error("fresh partition pending")
	}
	p.Enqueue(&mem.Request{ID: 1, Addr: 0x1000})
	if !p.Pending() {
		t.Error("queued request not pending")
	}
	if r, _ := run(p, 0, 2000); r == nil {
		t.Fatal("no response")
	}
	if p.Pending() {
		t.Error("drained partition still pending")
	}
}

// TestParkedHeadMatchesRetry is the L2 park's differential: two
// partitions starved of MSHRs and ways take the same random request
// stream. The reference re-probes a refused head every cycle, as the
// partition did before it could park; the other parks it until the next
// fill and is ticked only when Busy says so. Every response must leave
// both in the same cycle and every counter must agree after every cycle,
// and a parked head must pass its own first-principles check.
func TestParkedHeadMatchesRetry(t *testing.T) {
	cfg := config.Baseline()
	cfg.L2.Sets, cfg.L2.Ways = 4, 2
	cfg.L2MSHRs = 2
	refSt, parkSt := &stats.Stats{}, &stats.Stats{}
	ref, parked := New(cfg, refSt, nil), New(cfg, parkSt, nil)
	stride := addr.Addr(cfg.L2.LineSize * cfg.NumPartitions)
	rng := prng.New(5)
	parkedCycles, skipped := 0, 0
	for now := uint64(1); now < 30000 || ref.Pending(); now++ {
		if now > 1_000_000 {
			t.Fatal("partitions did not drain")
		}
		if now < 30000 && rng.Intn(3) == 0 {
			line := stride * addr.Addr(rng.Intn(40))
			store := rng.Intn(8) == 0
			ref.Enqueue(&mem.Request{ID: now, Addr: line, Store: store})
			parked.Enqueue(&mem.Request{ID: now, Addr: line, Store: store})
		}
		ref.parked = false // re-probe
		ref.Tick(now)
		if parked.Busy(now) {
			parked.Tick(now)
		} else {
			skipped++
		}
		if err := parked.CheckPark(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
		for {
			a, b := ref.PopResponse(), parked.PopResponse()
			if (a == nil) != (b == nil) || (a != nil && a.ID != b.ID) {
				t.Fatalf("cycle %d: responses diverge: retrying %v, parked %v", now, a, b)
			}
			if a == nil {
				break
			}
		}
		if parked.parked {
			parkedCycles++
			if parked.Queued() {
				t.Fatalf("cycle %d: a parked head is reported as serviceable work", now)
			}
		}
		if *refSt != *parkSt {
			t.Fatalf("cycle %d: counters diverge\nretrying %+v\nparked   %+v", now, *refSt, *parkSt)
		}
	}
	if parked.Pending() {
		t.Fatal("the retrying partition drained but the parking one did not")
	}
	if parkedCycles == 0 || skipped == 0 {
		t.Fatalf("%d parked cycles, %d ticks skipped: the configuration proves nothing", parkedCycles, skipped)
	}
	t.Logf("%d cycles with a parked head, %d ticks skipped, %d L2 accesses", parkedCycles, skipped, parkSt.L2Accesses)
}

// TestCheckParkCatchesAWrongPark parks a head by hand on a partition
// that could service it.
func TestCheckParkCatchesAWrongPark(t *testing.T) {
	p, _ := newPart()
	p.Enqueue(&mem.Request{ID: 1, Addr: 0x3000})
	p.parked = true
	if err := p.CheckPark(); err == nil {
		t.Error("a head parked in front of free MSHRs and ways went unnoticed")
	}
}

// TestWayIndexedMSHRs walks a partition with two MSHRs through a miss, a
// merge onto its reserved way, a second miss and a head parked behind the
// full file, and requires every reader of the way-indexed waiters — the
// merge, the fill, CheckPark, Pending and the mshr.entries gauge — to
// agree on the live count at each step; then it breaks the index by
// hand and requires CheckPark to notice.
func TestWayIndexedMSHRs(t *testing.T) {
	cfg := config.Baseline()
	cfg.L2.Sets, cfg.L2.Ways = 4, 2
	cfg.L2MSHRs = 2
	p := New(cfg, &stats.Stats{}, nil)
	reg := metrics.NewRegistry()
	p.RegisterMetrics(reg, "l2p0")
	reg.Seal()
	entries := func() int {
		row := reg.Sample()
		for i, name := range reg.Names() {
			if name == "l2p0.mshr.entries" {
				return int(row[i])
			}
		}
		t.Fatal("no mshr.entries gauge")
		return 0
	}
	expect := func(step string, live int) {
		t.Helper()
		if p.liveMSHRs() != live || entries() != live || p.Pending() != (live > 0) {
			t.Fatalf("%s: %d live MSHRs, gauge %d, Pending %v; want %d", step, p.liveMSHRs(), entries(), p.Pending(), live)
		}
		if err := p.CheckPark(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	stride := addr.Addr(cfg.L2.LineSize * cfg.NumPartitions)
	lineA, lineB, lineC := stride, 2*stride, 3*stride
	expect("fresh", 0)

	p.Enqueue(&mem.Request{ID: 1, Addr: lineA})
	p.Tick(1)
	expect("one miss", 1)
	p.Enqueue(&mem.Request{ID: 2, Addr: lineA})
	p.Tick(2)
	set, way, res := p.ta.Probe(lineA)
	if res != cache.ProbeReserved {
		t.Fatalf("line A probes %v, want reserved", res)
	}
	slotA := set*cfg.L2.Ways + way
	if m := p.mshrOf[slotA]; m < 0 || len(p.waiters[m]) != 2 {
		t.Fatalf("the merge did not land on way %d's waiters (MSHR %d)", slotA, m)
	}
	expect("merged", 1)
	p.Enqueue(&mem.Request{ID: 3, Addr: lineB})
	p.Tick(3)
	expect("two misses", 2)
	p.Enqueue(&mem.Request{ID: 4, Addr: lineC})
	p.Tick(4)
	if !p.parked {
		t.Fatal("a third miss with two MSHRs did not park")
	}
	expect("parked", 2)

	m := p.mshrOf[slotA]
	p.mshrOf[slotA] = -1
	if err := p.CheckPark(); err == nil {
		t.Error("a reserved way without an MSHR went unnoticed")
	}
	p.mshrOf[slotA] = m
	p.freeMSHRs = append(p.freeMSHRs, m)
	if err := p.CheckPark(); err == nil {
		t.Error("a live MSHR on the free stack went unnoticed")
	}
	p.freeMSHRs = p.freeMSHRs[:len(p.freeMSHRs)-1]
	p.waiters[m][1].Addr = lineB
	if err := p.CheckPark(); err == nil {
		t.Error("a waiter on the wrong way went unnoticed")
	}
	p.waiters[m][1].Addr = lineA
	expect("repaired", 2)

	// Line A's fill answers both of its waiters in one cycle, frees the
	// way's MSHR and wakes the parked head, which takes it.
	var got []uint64
	for now := uint64(5); len(got) < 2; now++ {
		if now > 5000 {
			t.Fatal("line A's fill never landed")
		}
		p.Tick(now)
		for r := p.PopResponse(); r != nil; r = p.PopResponse() {
			got = append(got, r.ID)
		}
		if len(got) == 1 {
			t.Fatalf("cycle %d: one of two merged requests answered alone", now)
		}
	}
	if got[0] != 1 || got[1] != 2 || p.mshrOf[slotA] != -1 {
		t.Fatalf("fill answered %v and left MSHR %d on the way, want [1 2] and none", got, p.mshrOf[slotA])
	}
	for now := uint64(5000); p.Pending(); now++ {
		if now > 20000 {
			t.Fatal("partition did not drain")
		}
		p.Tick(now)
		for p.PopResponse() != nil {
		}
		if err := p.CheckPark(); err != nil {
			t.Fatalf("cycle %d: %v", now, err)
		}
	}
	expect("drained", 0)
}

// TestEventQueuesPopAsOneHeap runs a partition whose two event queues pop
// in merged (readyAt, seq) order beside a reference that keeps every
// event in the one heap the partition used to have, over a random
// stream with hits and DRAM fills coming due in the same cycles. Every
// response must leave both in the same cycle and order; the two-queue
// partition is ticked only when Busy says so.
func TestEventQueuesPopAsOneHeap(t *testing.T) {
	cfg := config.Baseline()
	cfg.L2.Sets, cfg.L2.Ways = 8, 2
	cfg.L2HitLatency = 30 // inside the spread of DRAM latencies: either kind may be the older
	p, ref := New(cfg, &stats.Stats{}, nil), New(cfg, &stats.Stats{}, nil)
	stride := addr.Addr(cfg.L2.LineSize * cfg.NumPartitions)
	rng := prng.New(9)
	fillFirst, hitFirst := 0, 0 // cycles with both due, by which goes first
	for now := uint64(1); now < 40000 || ref.Pending(); now++ {
		if now > 1_000_000 {
			t.Fatal("partitions did not drain")
		}
		if now < 40000 && rng.Intn(2) == 0 {
			line := stride * addr.Addr(rng.Intn(24))
			p.Enqueue(&mem.Request{ID: now, Addr: line})
			ref.Enqueue(&mem.Request{ID: now, Addr: line})
		}
		ref.tickOneHeap(now)
		if p.hits.Len() > 0 && len(p.fills) > 0 && p.hits.Front().readyAt <= now && p.fills[0].readyAt <= now {
			if p.fills[0].before(p.hits.Front()) {
				fillFirst++
			} else {
				hitFirst++
			}
		}
		if p.Busy(now) {
			p.Tick(now)
		}
		for {
			a, b := ref.PopResponse(), p.PopResponse()
			if (a == nil) != (b == nil) || (a != nil && a.ID != b.ID) {
				t.Fatalf("cycle %d: responses diverge: one heap %v, two queues %v", now, a, b)
			}
			if a == nil {
				break
			}
		}
	}
	if p.Pending() {
		t.Fatal("the one-heap partition drained but the two-queue one did not")
	}
	if fillFirst == 0 || hitFirst == 0 {
		t.Fatalf("a hit and a fill came due together %d times fill first, %d times hit first: the stream proves nothing", fillFirst, hitFirst)
	}
}

// TestHitRingCountsAsScheduledWork leaves a lone hit on the ring, no
// fill in the heap, and asks everything that used to read the heap.
func TestHitRingCountsAsScheduledWork(t *testing.T) {
	p, _ := newPart()
	reg := metrics.NewRegistry()
	p.RegisterMetrics(reg, "l2p0")
	reg.Seal()
	p.Enqueue(&mem.Request{ID: 1, Addr: 0x1000})
	_, now := run(p, 0, 1000)
	p.Enqueue(&mem.Request{ID: 2, Addr: 0x1000})
	now++
	p.Tick(now)
	if p.hits.Len() != 1 || len(p.fills) != 0 {
		t.Fatalf("%d hits and %d fills queued, want a lone hit", p.hits.Len(), len(p.fills))
	}
	due := now + p.hitLatency
	if at, ok := p.NextEvent(); !ok || at != due {
		t.Errorf("NextEvent = %d, %v; want %d", at, ok, due)
	}
	if p.Busy(due-1) || !p.Busy(due) || !p.Pending() {
		t.Errorf("Busy(%d)=%v Busy(%d)=%v Pending=%v", due-1, p.Busy(due-1), due, p.Busy(due), p.Pending())
	}
	row := reg.Sample()
	for i, name := range reg.Names() {
		if name == "l2p0.events.pending" && row[i] != 1 {
			t.Errorf("events.pending gauge reads %d with a hit on the ring", row[i])
		}
	}
}

// tickOneHeap is Tick as it was with a single event heap: whatever
// service put on the hit ring moves into the heap, marked with set -1,
// and the heap alone decides the pop order.
func (p *Partition) tickOneHeap(now uint64) {
	p.now = now
	for len(p.fills) > 0 && p.fills[0].readyAt <= now {
		if ev := p.fills.pop(); ev.set < 0 {
			p.responses.Push(ev.req)
		} else {
			p.completeFill(ev)
		}
	}
	if p.inQ.Len() > 0 && !p.parked {
		if p.service(*p.inQ.Front()) {
			p.inQ.Pop()
		} else {
			p.parked = true
		}
	}
	for p.hits.Len() > 0 {
		ev := p.hits.Pop()
		ev.set = -1
		p.fills.push(ev)
	}
}
