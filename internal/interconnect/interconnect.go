// Package interconnect models the crossbar between the SM L1D caches and
// the memory partitions: fixed one-way latency, bounded per-cycle flit
// bandwidth in each direction, and flit accounting for the paper's
// Figure 13 interconnect-traffic metric.
//
// Besides L1D packets, real GPUs route L1I/L1C/L1T traffic over the same
// network; the paper notes (§6.4) this damps the relative traffic
// reduction from L1D bypassing. Callers model that with
// AddBackgroundFlits, which contributes to the traffic counters without
// occupying data bandwidth.
package interconnect

import (
	"repro/internal/mem"
	"repro/internal/ring"
	"repro/internal/stats"
)

// Direction selects a network direction.
type Direction int

const (
	// ToMem carries requests from the SMs to the memory partitions.
	ToMem Direction = iota
	// ToCore carries responses back to the SMs.
	ToCore
)

// packet is one request on the wire. Tick stamps arriveAt = now +
// latency with a constant latency and a non-decreasing now, so injection
// order is arrival order and the in-flight queue needs no sorting: its
// head is always the earliest arrival.
type packet struct {
	req      *mem.Request
	arriveAt uint64
}

type direction struct {
	// The injection queue is a FIFO of segments. PushBatch hands over a
	// whole lane of packets as one segment — an O(1) slice handoff, no
	// per-packet copying — which is what lets the engine's window close
	// do O(1) work per cycle and direction instead of O(packets).
	// Single-packet Push appends to an "open" tail segment, so packet-at-a-time
	// callers (tests, simple harnesses) see plain FIFO semantics.
	// off is the consumed prefix of the head segment; count is the total
	// queued across all segments. Fully consumed segments are recycled
	// through free and handed back to PushBatch callers, so the steady
	// state allocates nothing.
	segs     ring.Queue[[]*mem.Request]
	off      int
	count    int
	openTail bool
	free     [][]*mem.Request
	inFlight ring.Queue[packet]
	budget   int // flits remaining this cycle
	sent     int // flits of the head waiting packet already on the wire
}

// head returns the oldest waiting packet. Caller checks count > 0.
func (d *direction) head() *mem.Request { return (*d.segs.Front())[d.off] }

// popHead consumes the oldest waiting packet, recycling its segment
// once fully drained.
func (d *direction) popHead() {
	seg := *d.segs.Front()
	seg[d.off] = nil
	d.off++
	d.count--
	if d.off == len(seg) {
		d.free = append(d.free, d.segs.Pop()[:0])
		d.off = 0
		if d.segs.Len() == 0 {
			d.openTail = false
		}
	}
}

// grabFree pops a recycled empty segment, or nil when none is banked.
func (d *direction) grabFree() []*mem.Request {
	n := len(d.free)
	if n == 0 {
		return nil
	}
	s := d.free[n-1]
	d.free[n-1] = nil
	d.free = d.free[:n-1]
	return s
}

// Network is the crossbar. The engine calls Tick once per ICNT cycle,
// Push to inject packets, and PopArrived to collect deliveries.
type Network struct {
	latency   uint64
	bandwidth int // flits per cycle per direction
	flitBytes int
	lineSize  int
	dirs      [2]direction
	now       uint64
	st        *stats.Stats
}

// New builds a network with the given one-way latency (cycles), per-cycle
// per-direction flit bandwidth, flit size and cache line size (bytes).
func New(latency, bandwidth, flitBytes, lineSize int, st *stats.Stats) *Network {
	if latency < 0 || bandwidth <= 0 || flitBytes <= 0 || lineSize <= 0 {
		panic("interconnect: invalid parameters")
	}
	n := &Network{
		latency:   uint64(latency),
		bandwidth: bandwidth,
		flitBytes: flitBytes,
		lineSize:  lineSize,
		st:        st,
	}
	n.dirs[ToMem].budget = bandwidth
	n.dirs[ToCore].budget = bandwidth
	return n
}

// FlitsFor returns the flit count of a packet: one header/control flit,
// plus data flits when the packet carries a cache line (stores toward
// memory, load responses toward the core).
func (n *Network) FlitsFor(req *mem.Request, dir Direction) int {
	carriesData := (dir == ToMem && req.Store) || (dir == ToCore && !req.Store)
	if !carriesData {
		return 1
	}
	return 1 + (n.lineSize+n.flitBytes-1)/n.flitBytes
}

// Tick advances the network to cycle now, refreshing per-direction
// bandwidth budgets and injecting waiting packets in FIFO order until the
// budget runs out. Injection is packet-granular: a packet enters flight
// in the cycle whose budget covers all its flits at once. The exception
// is a packet wider than a whole cycle's bandwidth, which can never
// inject that way: it streams instead, holding the head of the queue and
// transmitting budget-many flits per cycle until fully on the wire.
// Without the exception, any bandwidth below the data-packet flit count
// would strand the packet at the port forever; keeping streaming to that
// case leaves sub-bandwidth packet timing — and thus every committed
// golden output — exactly as before.
func (n *Network) Tick(now uint64) {
	n.now = now
	for d := range n.dirs {
		dir := &n.dirs[d]
		dir.budget = n.bandwidth
		for dir.count > 0 && dir.budget > 0 {
			req := dir.head()
			flits := n.FlitsFor(req, Direction(d))
			remaining := flits - dir.sent
			if remaining > dir.budget {
				if flits > n.bandwidth {
					dir.sent += dir.budget
					dir.budget = 0
				}
				break
			}
			dir.budget -= remaining
			dir.sent = 0
			n.countFlits(flits)
			dir.inFlight.Push(packet{req: req, arriveAt: now + n.latency})
			dir.popHead()
		}
	}
}

func (n *Network) countFlits(flits int) {
	n.st.ICNTFlits += uint64(flits)
	n.st.ICNTDataFlits += uint64(flits)
}

// Push enqueues a packet for injection in the given direction. Packets
// land in an open tail segment, after everything already queued; Push
// and PushBatch interleave into one FIFO.
func (n *Network) Push(dir Direction, req *mem.Request) {
	d := &n.dirs[dir]
	if !d.openTail {
		d.segs.Push(d.grabFree())
		d.openTail = true
	}
	tail := d.segs.Back()
	*tail = append(*tail, req)
	d.count++
}

// PushBatch enqueues a whole lane of packets as one segment, preserving
// their order after everything already queued. The network takes
// ownership of the slice; in exchange the caller receives an empty
// recycled buffer (possibly nil early on) for its next lane fill, so a
// steady-state lane merge moves no packets and allocates nothing. An
// empty batch is returned unchanged.
func (n *Network) PushBatch(dir Direction, batch []*mem.Request) []*mem.Request {
	if len(batch) == 0 {
		return batch
	}
	d := &n.dirs[dir]
	d.segs.Push(batch)
	d.openTail = false
	d.count += len(batch)
	return d.grabFree()
}

// PopArrived returns the next packet that has completed its flight in the
// given direction by the cycle of the last Tick, or nil.
func (n *Network) PopArrived(dir Direction) *mem.Request {
	req, _ := n.PopArrivedBy(dir, n.now)
	return req
}

// PopArrivedBy returns the next packet of the given direction whose
// flight ends at or before cycle by, with the cycle it lands on, or nil.
// The engine's window loop collects a whole window's arrivals with it
// right after the window's first Tick: every packet that can land inside
// a window no longer than the latency plus one is in flight by then.
func (n *Network) PopArrivedBy(dir Direction, by uint64) (req *mem.Request, at uint64) {
	q := &n.dirs[dir].inFlight
	if q.Len() == 0 || q.Front().arriveAt > by {
		return nil, 0
	}
	p := q.Pop()
	return p.req, p.arriveAt
}

// HasWaiting reports whether any packet sits in an injection queue. A
// waiting packet means the next Tick does real work (it will inject),
// so the engine must not fast-forward past it.
func (n *Network) HasWaiting() bool {
	return n.dirs[ToMem].count > 0 || n.dirs[ToCore].count > 0
}

// NextArrival returns the earliest in-flight arrival time across both
// directions. ok is false when nothing is in flight. With empty
// injection queues this is the network's next activity cycle: between
// now and that cycle every Tick is a pure no-op.
func (n *Network) NextArrival() (at uint64, ok bool) {
	for d := range n.dirs {
		if q := &n.dirs[d].inFlight; q.Len() > 0 && (!ok || q.Front().arriveAt < at) {
			at, ok = q.Front().arriveAt, true
		}
	}
	return at, ok
}

// AddBackgroundFlits accounts traffic from the other L1 caches (L1I, L1C,
// L1T) sharing the crossbar. It affects only the traffic counters.
func (n *Network) AddBackgroundFlits(flits uint64) {
	n.st.ICNTFlits += flits
}

// Pending reports whether any packet is waiting or in flight.
func (n *Network) Pending() bool {
	for d := range n.dirs {
		if n.dirs[d].count > 0 || n.dirs[d].inFlight.Len() > 0 {
			return true
		}
	}
	return false
}
