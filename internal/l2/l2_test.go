package l2

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/config"
	"repro/internal/mem"
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
