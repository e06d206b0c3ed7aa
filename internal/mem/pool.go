package mem

// Pool is a free list of Requests. The components that create requests
// (the SM LD/ST units) and the delivery points that consume them (the
// SM response callback for loads, the L2 write-through sink for stores)
// recycle through pools, so a simulation's steady state reuses a small
// working set of Request objects instead of allocating one per memory
// instruction. Pools are unlocked: each is owned by exactly one
// component — the engine gives every SM its own pool, and other
// consumers (L2 partitions retiring stores) defer their returns through
// a Recycler that the engine drains back to the owning SM's pool when a
// window of cycles closes. Separate engines (parallel runner workers)
// each own their own pools.
//
// A nil *Pool is valid and simply allocates/discards, which keeps
// component constructors usable from tests that don't care about
// pooling.
type Pool struct {
	free []*Request
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed Request, reusing a recycled one when available.
func (p *Pool) Get() *Request {
	if p == nil || len(p.free) == 0 {
		return new(Request)
	}
	n := len(p.free) - 1
	r := p.free[n]
	p.free[n] = nil
	p.free = p.free[:n]
	*r = Request{}
	return r
}

// Put recycles a Request whose lifetime has ended. The caller must hold
// the only live reference: a double Put (or a Put of a request still
// queued somewhere) would hand the same object to two owners and
// corrupt the simulation.
func (p *Pool) Put(r *Request) {
	if p == nil || r == nil {
		return
	}
	p.free = append(p.free, r)
}

// Recycler accumulates Requests whose lifetime ended on a component that
// does not own their home pool. L2 partitions retire store requests that
// were allocated from the issuing SM's pool and defer the return here;
// the engine hands them back to their origin SM's pool (Request.SM) when
// the window closes, so a pool's free level — a sampled metric column —
// moves on the window grid, not in the middle of another component's
// run.
//
// A nil *Recycler is valid: Defer discards the request (matching the
// nil-*Pool contract) and DrainTo is a no-op.
type Recycler struct {
	reqs []*Request
}

// Defer records a request for a later DrainTo.
func (rc *Recycler) Defer(r *Request) {
	if rc == nil || r == nil {
		return
	}
	rc.reqs = append(rc.reqs, r)
}

// Len reports how many requests are waiting to be drained.
func (rc *Recycler) Len() int {
	if rc == nil {
		return 0
	}
	return len(rc.reqs)
}

// DrainTo appends every deferred request to lane (in defer order),
// resets the recycler keeping its backing array for reuse, and returns
// the extended lane. The engine moves a partition's deferred returns
// into its window's store list this way and routes them home when the
// window closes. A nil receiver returns lane unchanged.
func (rc *Recycler) DrainTo(lane []*Request) []*Request {
	if rc == nil {
		return lane
	}
	lane = append(lane, rc.reqs...)
	for i := range rc.reqs {
		rc.reqs[i] = nil
	}
	rc.reqs = rc.reqs[:0]
	return lane
}
