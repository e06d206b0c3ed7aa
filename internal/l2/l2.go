// Package l2 models one memory partition's L2 cache slice: a linear-
// indexed set-associative write-back cache servicing one request per
// cycle, with outstanding-miss merging and a GDDR5 DRAM channel behind
// it (Table 1: 12 partitions, 64 sets x 8 ways x 128B each).
package l2

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/ring"
	"repro/internal/stats"
)

// event is one scheduled completion: an L2 hit's response becoming ready
// to send, or a DRAM fill landing in the way (set, way) it reserved.
type event struct {
	readyAt  uint64
	req      *mem.Request
	seq      uint64
	set, way int32
}

// before orders events by (readyAt, seq). seq makes the order total, so
// pop order is layout-independent.
func (ev *event) before(o *event) bool {
	if ev.readyAt != o.readyAt {
		return ev.readyAt < o.readyAt
	}
	return ev.seq < o.seq
}

// eventHeap is a hand-rolled min-heap on (readyAt, seq), replacing
// container/heap to avoid interface boxing on every scheduled event. It
// holds the DRAM fills, whose completion times come out of the channel
// model in no particular order.
type eventHeap []event

func (h eventHeap) less(i, j int) bool { return h[i].before(&h[j]) }

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the stale request reference
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// Partition is one L2 slice plus its DRAM channel.
type Partition struct {
	ta     *cache.TagArray
	mapper *addr.Mapper

	// The MSHRs. An outstanding fetch owns the way it reserved, and every
	// path that needs its entry — a merge in service, the fill — has just
	// located that way, so the entry hangs off the way instead of a table
	// keyed by address: mshrOf[set*ways+way] indexes waiters (-1: the way
	// has no fetch outstanding). waiters grows to at most maxMSHRs lists,
	// which keep their capacity between fetches; freeMSHRs holds the
	// indices not in use, and the rest are live.
	mshrOf    []int32
	waiters   [][]*mem.Request
	freeMSHRs []int32
	maxMSHRs  int

	inQ ring.Queue[*mem.Request]
	// Scheduled completions, in two queues popped as one in (readyAt,
	// seq) order. A hit is due hitLatency after a clock that never runs
	// backwards, so hits are scheduled in the order they come due and a
	// ring holds them; only DRAM fills need the heap.
	hits       ring.Queue[event]
	fills      eventHeap
	responses  ring.Queue[*mem.Request]
	dram       *dram.Channel
	hitLatency uint64
	st         *stats.Stats
	now        uint64
	seq        uint64
	// pool receives consumed write-through stores (the partition is
	// their last stop); may be nil. When rec is set it takes precedence:
	// consumed stores are deferred there instead, for the engine to
	// route back to each issuing SM's pool during the serial phase —
	// the partition may be ticking on a phase worker, where touching an
	// SM-owned pool directly would race.
	pool *mem.Pool
	rec  *mem.Recycler
	// parked marks an input-queue head that service refused for want of
	// an MSHR or a victim way. Both free up only when a DRAM fill lands,
	// so the head is not re-probed until completeFill clears the mark;
	// until then Busy and Queued do not count it as serviceable work.
	parked bool
}

// New builds a partition from the configuration. pool, which may be
// nil, recycles the store requests the partition consumes.
func New(cfg *config.Config, st *stats.Stats, pool *mem.Pool) *Partition {
	kind := addr.LinearIndex
	if cfg.L2.Hashed {
		kind = addr.HashIndex
	}
	m, err := addr.NewPartitionedMapper(cfg.L2.LineSize, cfg.L2.Sets, kind, cfg.NumPartitions)
	if err != nil {
		panic(err)
	}
	mshrOf := make([]int32, m.NumSets()*cfg.L2.Ways)
	for i := range mshrOf {
		mshrOf[i] = -1
	}
	return &Partition{
		ta:       cache.NewTagArray(m, cfg.L2.Ways),
		mapper:   m,
		mshrOf:   mshrOf,
		maxMSHRs: cfg.L2MSHRs,
		dram: dram.New(cfg.DRAMBanks, cfg.DRAMRowHit, cfg.DRAMRowMiss,
			cfg.DRAMBusCycles, cfg.CoreClockMHz, cfg.MemClockMHz, cfg.NumPartitions),
		hitLatency: uint64(cfg.L2HitLatency),
		st:         st,
		pool:       pool,
	}
}

// Enqueue accepts a request delivered by the interconnect.
func (p *Partition) Enqueue(req *mem.Request) {
	p.inQ.Push(req)
}

// Tick advances the partition to cycle now: hands out the responses and
// completes the DRAM fills that are due, oldest (readyAt, seq) first
// across both queues, then services one new request from the input
// queue.
func (p *Partition) Tick(now uint64) {
	p.now = now
	for {
		hit := p.hits.Len() > 0 && p.hits.Front().readyAt <= now
		fill := len(p.fills) > 0 && p.fills[0].readyAt <= now
		if hit && !(fill && p.fills[0].before(p.hits.Front())) {
			p.responses.Push(p.hits.Pop().req)
		} else if fill {
			p.completeFill(p.fills.pop())
		} else {
			break
		}
	}
	if p.inQ.Len() > 0 && !p.parked {
		if p.service(*p.inQ.Front()) {
			p.inQ.Pop()
		} else {
			p.parked = true
		}
	}
}

// service attempts to handle one request; false means it needs an MSHR
// or a victim way that only the next fill can free.
func (p *Partition) service(req *mem.Request) bool {
	if req.Store {
		p.serviceStore(req)
		return true
	}
	p.st.L2Accesses++
	set, way, res := p.ta.Probe(req.Addr)
	switch res {
	case cache.ProbeHit:
		p.st.L2Hits++
		p.ta.Touch(set, way)
		if p.hits.Len() > 0 && p.hits.Back().readyAt > p.now+p.hitLatency {
			panic(fmt.Sprintf("l2: clock ran backwards to %d with a hit due at %d queued", p.now, p.hits.Back().readyAt))
		}
		p.seq++
		p.hits.Push(event{readyAt: p.now + p.hitLatency, req: req, seq: p.seq})
		return true
	case cache.ProbeReserved:
		// Merge onto the outstanding fetch; the fill completion responds
		// to every merged request.
		p.st.L2Misses++
		m := p.mshrOf[set*p.ta.Ways()+way]
		if m < 0 {
			panic(fmt.Sprintf("l2: reserved line %#x without MSHR entry", uint64(req.Addr)))
		}
		p.waiters[m] = append(p.waiters[m], req)
		return true
	default:
		if p.liveMSHRs() >= p.maxMSHRs {
			p.st.L2Accesses-- // not serviced; retry without double-counting
			return false
		}
		victim := p.ta.VictimIn(set, nil)
		if victim < 0 {
			p.st.L2Accesses--
			return false
		}
		p.st.L2Misses++
		evicted := p.ta.Reserve(set, victim, req.Addr)
		if evicted.Valid && evicted.Dirty {
			p.writeback(evicted)
		}
		m := p.allocMSHR()
		p.mshrOf[set*p.ta.Ways()+victim] = m
		p.waiters[m] = append(p.waiters[m], req)
		done := p.dram.Access(req.Addr, p.mapper.LineSize(), p.now)
		p.st.DRAMReads++
		p.seq++
		p.fills.push(event{readyAt: done, req: req, seq: p.seq, set: int32(set), way: int32(victim)})
		return true
	}
}

func (p *Partition) serviceStore(req *mem.Request) {
	defer p.recycleStore(req)
	p.st.L2Accesses++
	set, way, res := p.ta.Probe(req.Addr)
	if res == cache.ProbeHit {
		// Write-back: absorb the store, mark dirty.
		p.st.L2Hits++
		lines := p.ta.Set(set)
		lines[way].Dirty = true
		p.ta.Touch(set, way)
		return
	}
	// Write-no-allocate on miss (and on in-flight lines): forward to DRAM.
	p.st.L2Misses++
	p.dram.Access(req.Addr, p.mapper.LineSize(), p.now)
	p.st.DRAMWrites++
}

// SetRecycler diverts consumed write-through stores into rc instead of
// the pool passed to New. The engine installs one recycler per
// partition and drains them serially each cycle, so partition ticks
// never touch another shard's pool.
func (p *Partition) SetRecycler(rc *mem.Recycler) { p.rec = rc }

// recycleStore returns a consumed write-through store to the request
// pool (or defers it to the engine's recycler). The partition is a
// store's final owner — stores get no response — so this is the one
// place a store request dies.
func (p *Partition) recycleStore(req *mem.Request) {
	if p.rec != nil {
		p.rec.Defer(req)
		return
	}
	p.pool.Put(req)
}

// liveMSHRs counts the outstanding fetches.
func (p *Partition) liveMSHRs() int { return len(p.waiters) - len(p.freeMSHRs) }

// allocMSHR takes an MSHR with an empty waiter list. The caller has
// checked liveMSHRs against maxMSHRs.
func (p *Partition) allocMSHR() int32 {
	if n := len(p.freeMSHRs); n > 0 {
		m := p.freeMSHRs[n-1]
		p.freeMSHRs = p.freeMSHRs[:n-1]
		return m
	}
	p.waiters = append(p.waiters, make([]*mem.Request, 0, 4))
	return int32(len(p.waiters) - 1)
}

// writeback sends a dirty victim to DRAM.
func (p *Partition) writeback(evicted cache.Line) {
	// Reconstruct the line address from the tag (tag == full line number).
	lineAddr := addr.Addr(evicted.Tag * uint64(p.mapper.LineSize()))
	p.dram.Access(lineAddr, p.mapper.LineSize(), p.now)
	p.st.DRAMWrites++
}

// completeFill lands a DRAM read: fill the way it reserved and release
// all merged requests as responses.
func (p *Partition) completeFill(ev event) {
	set, way := int(ev.set), int(ev.way)
	if ln := &p.ta.Set(set)[way]; !ln.Reserved || ln.Tag != p.mapper.Tag(ev.req.Addr) {
		panic(fmt.Sprintf("l2: fill for %#x but way %d of set %d is not reserved for it", uint64(ev.req.Addr), way, set))
	}
	slot := set*p.ta.Ways() + way
	m := p.mshrOf[slot]
	if m < 0 {
		panic(fmt.Sprintf("l2: fill for %#x without MSHR entry", uint64(ev.req.Addr)))
	}
	p.mshrOf[slot] = -1
	p.parked = false
	p.ta.Fill(set, way)
	waiters := p.waiters[m]
	for i, w := range waiters {
		p.responses.Push(w)
		waiters[i] = nil
	}
	p.waiters[m] = waiters[:0]
	p.freeMSHRs = append(p.freeMSHRs, m)
}

// PopResponse returns the next load response ready to travel back to the
// core, or nil.
func (p *Partition) PopResponse() *mem.Request {
	if p.responses.Len() == 0 {
		return nil
	}
	return p.responses.Pop()
}

// Pending reports whether the partition still has queued, in-flight, or
// undelivered work.
func (p *Partition) Pending() bool {
	return p.inQ.Len() > 0 || p.hits.Len() > 0 || len(p.fills) > 0 || p.responses.Len() > 0 || p.liveMSHRs() > 0
}

// Busy reports whether Tick(now) would do real work: a queued request
// to service, a response to hand out, or a scheduled event that is due.
// When false, Tick is a pure no-op (it would only refresh p.now, which
// the next real service observes anyway), so the engine can skip it.
func (p *Partition) Busy(now uint64) bool {
	if p.Queued() {
		return true
	}
	at, ok := p.NextEvent()
	return ok && at <= now
}

// NextEvent returns the earliest scheduled completion time over both
// event queues, or ok=false when no event is pending. With nothing
// Queued this is the partition's next activity cycle.
func (p *Partition) NextEvent() (at uint64, ok bool) {
	if p.hits.Len() > 0 {
		at, ok = p.hits.Front().readyAt, true
	}
	if len(p.fills) > 0 && !(ok && at <= p.fills[0].readyAt) {
		at, ok = p.fills[0].readyAt, true
	}
	return at, ok
}

// Queued reports whether the partition holds immediately serviceable
// work (an input-queue head that is not parked, or undelivered
// responses) — work that makes the very next cycle active.
func (p *Partition) Queued() bool {
	return (p.inQ.Len() > 0 && !p.parked) || p.responses.Len() > 0
}

// checkMSHRs sweeps the ways: exactly the reserved ones have an MSHR,
// each its own, holding at least the request that opened it and only
// requests for the way's line; every other waiter list is free.
func (p *Partition) checkMSHRs() error {
	live, ways := 0, p.ta.Ways()
	owned := make([]bool, len(p.waiters))
	for slot, m := range p.mshrOf {
		ln := &p.ta.Set(slot / ways)[slot%ways]
		if ln.Reserved != (m >= 0) {
			return fmt.Errorf("l2: way %d of set %d has reserved=%v but MSHR %d", slot%ways, slot/ways, ln.Reserved, m)
		}
		if m < 0 {
			continue
		}
		live++
		if int(m) >= len(p.waiters) || owned[m] || len(p.waiters[m]) == 0 {
			return fmt.Errorf("l2: way %d of set %d holds MSHR %d, which is out of range, shared or has no waiter", slot%ways, slot/ways, m)
		}
		owned[m] = true
		for _, w := range p.waiters[m] {
			if p.mapper.Tag(w.Addr) != ln.Tag {
				return fmt.Errorf("l2: %v waits on way %d of set %d, which is reserved for tag %#x", w, slot%ways, slot/ways, ln.Tag)
			}
		}
	}
	if live != p.liveMSHRs() {
		return fmt.Errorf("l2: %d ways hold an MSHR, but %d of %d waiter lists are free",
			live, len(p.freeMSHRs), len(p.waiters))
	}
	return nil
}

// CheckPark re-derives the partition's bookkeeping from first
// principles: the way-indexed MSHRs (checkMSHRs), and a parked head's
// refusal — a load that matches no line, with every MSHR taken or no way
// of its set replaceable, and a fill outstanding to end the wait. The
// engine's sampled self-checks call it; it never mutates state.
func (p *Partition) CheckPark() error {
	if err := p.checkMSHRs(); err != nil {
		return err
	}
	if !p.parked {
		return nil
	}
	if p.inQ.Len() == 0 {
		return fmt.Errorf("l2: parked with an empty input queue")
	}
	req := *p.inQ.Front()
	set, _, res := p.ta.Probe(req.Addr)
	if req.Store || res != cache.ProbeMiss {
		return fmt.Errorf("l2: parked head %v is serviceable (probe %v)", req, res)
	}
	if p.liveMSHRs() < p.maxMSHRs && p.ta.VictimIn(set, nil) >= 0 {
		return fmt.Errorf("l2: parked head %v has a free MSHR (%d of %d) and a victim way",
			req, p.liveMSHRs(), p.maxMSHRs)
	}
	if p.liveMSHRs() == 0 {
		return fmt.Errorf("l2: parked head %v with no fill outstanding to wake it", req)
	}
	return nil
}
