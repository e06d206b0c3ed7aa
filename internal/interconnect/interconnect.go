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

type packet struct {
	req      *mem.Request
	arriveAt uint64
}

// flightQueue holds the packets on the wire, oldest first. Tick stamps
// arriveAt = now + latency with a constant latency and a non-decreasing
// now, so injection order is arrival order and a FIFO needs no sorting:
// the head is always the earliest arrival. It is a ring over a
// power-of-two buffer that doubles when full, so the steady state
// allocates nothing.
type flightQueue struct {
	buf  []packet // len is zero or a power of two
	head int      // index of the oldest packet
	n    int      // packets in flight
}

func (q *flightQueue) push(p packet) {
	if q.n == len(q.buf) {
		buf := make([]packet, max(8, 2*len(q.buf)))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
}

// next returns the arrival cycle of the oldest packet in flight.
func (q *flightQueue) next() (at uint64, ok bool) {
	if q.n == 0 {
		return 0, false
	}
	return q.buf[q.head].arriveAt, true
}

// arrived pops the head if its flight is over by cycle now, else nil.
func (q *flightQueue) arrived(now uint64) *mem.Request {
	if at, ok := q.next(); !ok || at > now {
		return nil
	}
	req := q.buf[q.head].req
	q.buf[q.head].req = nil // the ring must not pin delivered requests alive
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return req
}

type direction struct {
	// The injection queue is a FIFO of segments. PushBatch hands over a
	// whole lane of packets as one segment — an O(1) slice handoff, no
	// per-packet copying — which is what lets the engine's serial merge
	// do O(lanes) work per cycle instead of O(packets). Single-packet
	// Push appends to an "open" tail segment, so packet-at-a-time
	// callers (tests, simple harnesses) see plain FIFO semantics.
	// off is the consumed prefix of segs[0]; count is the total queued
	// across all segments. Fully consumed segments are recycled through
	// free and handed back to PushBatch callers, so the steady state
	// allocates nothing.
	segs     [][]*mem.Request
	off      int
	count    int
	openTail bool
	free     [][]*mem.Request
	inFlight flightQueue
	budget   int // flits remaining this cycle
	sent     int // flits of the head waiting packet already on the wire
}

// head returns the oldest waiting packet. Caller checks count > 0.
func (d *direction) head() *mem.Request { return d.segs[0][d.off] }

// popHead consumes the oldest waiting packet, recycling its segment
// once fully drained.
func (d *direction) popHead() {
	d.segs[0][d.off] = nil
	d.off++
	d.count--
	if d.off == len(d.segs[0]) {
		d.free = append(d.free, d.segs[0][:0])
		copy(d.segs, d.segs[1:])
		d.segs[len(d.segs)-1] = nil
		d.segs = d.segs[:len(d.segs)-1]
		d.off = 0
		if len(d.segs) == 0 {
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
			dir.inFlight.push(packet{req: req, arriveAt: now + n.latency})
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
		d.segs = append(d.segs, d.grabFree())
		d.openTail = true
	}
	last := len(d.segs) - 1
	d.segs[last] = append(d.segs[last], req)
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
	d.segs = append(d.segs, batch)
	d.openTail = false
	d.count += len(batch)
	return d.grabFree()
}

// PopArrived returns the next packet that has completed its flight in the
// given direction, or nil.
func (n *Network) PopArrived(dir Direction) *mem.Request {
	return n.dirs[dir].inFlight.arrived(n.now)
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
		if a, flying := n.dirs[d].inFlight.next(); flying && (!ok || a < at) {
			at, ok = a, true
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
		if n.dirs[d].count > 0 || n.dirs[d].inFlight.n > 0 {
			return true
		}
	}
	return false
}
