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

type event struct {
	readyAt uint64
	req     *mem.Request
	fill    bool // true: DRAM fill completion; false: response ready to send
	seq     uint64
}

// eventHeap is a hand-rolled min-heap on (readyAt, seq), replacing
// container/heap to avoid interface boxing on every scheduled event.
// seq makes the order total, so pop order is layout-independent.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].readyAt != h[j].readyAt {
		return h[i].readyAt < h[j].readyAt
	}
	return h[i].seq < h[j].seq
}

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
	ta         *cache.TagArray
	mapper     *addr.Mapper
	mshr       map[addr.Addr][]*mem.Request
	maxMSHRs   int
	inQ        ring.Queue[*mem.Request]
	events     eventHeap
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
	// SM-owned pool directly would race. freeWaiters recycles the MSHR
	// waiter slices so the steady-state miss path allocates nothing.
	pool        *mem.Pool
	rec         *mem.Recycler
	freeWaiters [][]*mem.Request
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
	return &Partition{
		ta:       cache.NewTagArray(m, cfg.L2.Ways),
		mapper:   m,
		mshr:     make(map[addr.Addr][]*mem.Request),
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

// Tick advances the partition to cycle now: completes due DRAM fills,
// then services one new request from the input queue.
func (p *Partition) Tick(now uint64) {
	p.now = now
	for len(p.events) > 0 && p.events[0].readyAt <= now {
		ev := p.events.pop()
		if ev.fill {
			p.completeFill(ev.req)
		} else {
			p.responses.Push(ev.req)
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
		p.schedule(req, p.now+p.hitLatency, false)
		return true
	case cache.ProbeReserved:
		// Merge onto the outstanding fetch; the fill completion responds
		// to every merged request.
		p.st.L2Misses++
		p.mshr[req.Addr] = append(p.mshr[req.Addr], req)
		return true
	default:
		if len(p.mshr) >= p.maxMSHRs {
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
		p.mshr[req.Addr] = append(p.getWaiters(), req)
		done := p.dram.Access(req.Addr, p.mapper.LineSize(), p.now)
		p.st.DRAMReads++
		p.schedule(req, done, true)
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

// getWaiters returns an empty MSHR waiter slice, reusing a recycled
// backing array when one is available.
func (p *Partition) getWaiters() []*mem.Request {
	if n := len(p.freeWaiters); n > 0 {
		w := p.freeWaiters[n-1]
		p.freeWaiters[n-1] = nil
		p.freeWaiters = p.freeWaiters[:n-1]
		return w
	}
	return make([]*mem.Request, 0, 4)
}

func (p *Partition) putWaiters(w []*mem.Request) {
	for i := range w {
		w[i] = nil
	}
	p.freeWaiters = append(p.freeWaiters, w[:0])
}

// writeback sends a dirty victim to DRAM.
func (p *Partition) writeback(evicted cache.Line) {
	// Reconstruct the line address from the tag (tag == full line number).
	lineAddr := addr.Addr(evicted.Tag * uint64(p.mapper.LineSize()))
	p.dram.Access(lineAddr, p.mapper.LineSize(), p.now)
	p.st.DRAMWrites++
}

// completeFill lands a DRAM read: fill the reserved line and release all
// merged requests as responses.
func (p *Partition) completeFill(req *mem.Request) {
	waiters := p.mshr[req.Addr]
	if waiters == nil {
		panic(fmt.Sprintf("l2: fill for %#x without MSHR entry", uint64(req.Addr)))
	}
	delete(p.mshr, req.Addr)
	p.parked = false
	set, way, res := p.ta.Probe(req.Addr)
	if res != cache.ProbeReserved {
		panic(fmt.Sprintf("l2: fill for %#x but line not reserved (%v)", uint64(req.Addr), res))
	}
	p.ta.Fill(set, way)
	for _, w := range waiters {
		p.responses.Push(w)
	}
	p.putWaiters(waiters)
}

func (p *Partition) schedule(req *mem.Request, at uint64, fill bool) {
	p.seq++
	p.events.push(event{readyAt: at, req: req, fill: fill, seq: p.seq})
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
	return p.inQ.Len() > 0 || len(p.events) > 0 || p.responses.Len() > 0 || len(p.mshr) > 0
}

// Busy reports whether Tick(now) would do real work: a queued request
// to service, a response to hand out, or a scheduled event that is due.
// When false, Tick is a pure no-op (it would only refresh p.now, which
// the next real service observes anyway), so the engine can skip it.
func (p *Partition) Busy(now uint64) bool {
	return p.Queued() || (len(p.events) > 0 && p.events[0].readyAt <= now)
}

// NextEvent returns the earliest scheduled completion time, or ok=false
// when no event is pending. With nothing Queued this is the partition's
// next activity cycle.
func (p *Partition) NextEvent() (at uint64, ok bool) {
	if len(p.events) == 0 {
		return 0, false
	}
	return p.events[0].readyAt, true
}

// Queued reports whether the partition holds immediately serviceable
// work (an input-queue head that is not parked, or undelivered
// responses) — work that makes the very next cycle active.
func (p *Partition) Queued() bool {
	return (p.inQ.Len() > 0 && !p.parked) || p.responses.Len() > 0
}

// CheckPark re-derives a parked head's refusal from first principles: a
// load that matches no line, with every MSHR taken or no way of its set
// replaceable, and a fill outstanding to end the wait. The engine's
// sampled self-checks call it; it never mutates state.
func (p *Partition) CheckPark() error {
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
	if len(p.mshr) < p.maxMSHRs && p.ta.VictimIn(set, nil) >= 0 {
		return fmt.Errorf("l2: parked head %v has a free MSHR (%d of %d) and a victim way",
			req, len(p.mshr), p.maxMSHRs)
	}
	if len(p.mshr) == 0 {
		return fmt.Errorf("l2: parked head %v with no fill outstanding to wake it", req)
	}
	return nil
}
