// Package core implements the simulated L1 data cache controller: the
// tag array mechanism (probe, reserve, fill), MSHRs, miss and bypass
// queues, hit-latency modelling and statistics. Every management
// decision — stall vs bypass, victim eligibility, admission, protection
// state — comes from a registry entry of internal/policy, where the
// paper's DLP hardware (VTA, PDPT, Figure 9 computation) lives as one
// scheme among several. The §4.3 hardware-overhead model is also here.
package core

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/ring"
	"repro/internal/stats"
)

// L1D is one SM's L1 data cache, running under a registered management
// policy. The SM's LD/ST unit calls Access; the engine drains outgoing
// fetches with PopOutgoing and delivers network responses with OnResponse.
// Completed loads are handed back to the SM through the deliver callback.
type L1D struct {
	cfg    *config.Config
	policy config.Policy
	mapper *addr.Mapper
	ta     *cache.TagArray
	mshr   *cache.MSHR
	missQ  *cache.FIFO // fetches for misses that reserved a line
	bypsQ  *cache.FIFO // bypassed fetches and write-through stores (never stalls)

	// The scheme: pol decides per access; the victim filter (nil for
	// plain LRU) and onBlocked — stall or bypass per Block reason — are
	// copied out of its registry entry when the cache is built.
	pol      policy.Policy
	eligible func(*cache.Line) bool

	st   *stats.Stats
	seen lineSet // line IDs ever requested, for compulsory-miss accounting

	deliver func(*mem.Request)
	hitQ    ring.Queue[hitResponse] // ordered by readyAt: the latency is constant
	now     uint64

	onBlocked [3]policy.Decision

	// What lets the LD/ST unit park a stalled access instead of replaying
	// it every cycle. A stalled Access calls no policy hook and reads only
	// MSHR, miss-queue and tag state (policy.Spec.check keeps clocked
	// victim filters out of it), so it keeps stalling until that state
	// moves: epoch counts the two events that move it while the pipeline
	// register is blocked — a response (MSHR release, fill) and a
	// miss-queue pop.
	epoch uint64
}

type hitResponse struct {
	readyAt uint64
	req     *mem.Request
}

// NewL1D builds an L1D for cfg under the given policy. deliver is invoked
// once per completed load request (hit, fill, or bypass response). The
// policy name must be registered (sim.New validates it up front); an
// unknown name here is a programming error and panics.
func NewL1D(cfg *config.Config, pol config.Policy, deliver func(*mem.Request)) *L1D {
	kind := addr.LinearIndex
	if cfg.L1D.Hashed {
		kind = addr.HashIndex
	}
	m := addr.MustMapper(cfg.L1D.LineSize, cfg.L1D.Sets, kind)
	c := &L1D{
		cfg:     cfg,
		policy:  pol,
		mapper:  m,
		ta:      cache.NewTagArray(m, cfg.L1D.Ways),
		mshr:    cache.NewMSHR(cfg.L1DMSHRs, cfg.L1DMSHRMerges),
		missQ:   cache.NewFIFO(cfg.L1DMissQueue),
		bypsQ:   cache.NewFIFO(0),
		st:      &stats.Stats{},
		deliver: deliver,
	}
	host := &policy.Host{
		Cfg:    cfg,
		Mapper: m,
		Tags:   c.ta,
		Stats:  c.st,
		Now:    func() uint64 { return c.now },
	}
	sp, ok := policy.Lookup(pol)
	if !ok {
		panic(fmt.Sprintf("core: %q is not a registered policy (want %s)", pol, policy.Usage()))
	}
	c.pol = sp.New(host)
	c.onBlocked = sp.Blocked
	if sp.Eligible != nil {
		c.eligible = sp.Eligible(host)
	}
	return c
}

// Stats returns the cache's counters.
func (c *L1D) Stats() *stats.Stats { return c.st }

// PDPT exposes the prediction table for tests and introspection; nil for
// policies that don't carry one (everything but Global-Protection and
// DLP).
func (c *L1D) PDPT() *policy.PDPT {
	if p, ok := c.pol.(policy.PDPTCarrier); ok {
		return p.PDPT()
	}
	return nil
}

// Tick advances the cache to cycle now and delivers hit responses whose
// latency has elapsed, returning how many it delivered.
func (c *L1D) Tick(now uint64) int {
	c.now = now
	n := 0
	for c.hitQ.Len() > 0 && c.hitQ.Front().readyAt <= now {
		c.deliver(c.hitQ.Pop().req)
		n++
	}
	return n
}

// NextDelivery returns the cycle the oldest queued hit becomes
// deliverable; ok=false when no hits are queued. Hit latency is
// constant, so the queue is ordered by readyAt and the head is the
// minimum.
func (c *L1D) NextDelivery() (at uint64, ok bool) {
	if c.hitQ.Len() == 0 {
		return 0, false
	}
	return c.hitQ.Front().readyAt, true
}

// NoteInstructions feeds executed-instruction counts into the policy's
// sampling clock so kernels with few loads still close samples (§4.1.4).
func (c *L1D) NoteInstructions(n uint64) {
	c.pol.NoteInstructions(n)
}

// acceptAccess counts an accepted (non-stalled) access and runs the
// policy's per-access hook (sampling clock, protection aging).
func (c *L1D) acceptAccess(req *mem.Request, set int) {
	c.st.L1DAccesses++
	c.pol.OnAccess(req, set)
}

// acceptUncached is acceptAccess for an access that found its line
// neither valid nor reserved in the TDA, or that bypasses: the only
// accesses that can be a line's first-ever touch, since a line gets into
// the TDA through a serviced miss that was counted here.
func (c *L1D) acceptUncached(req *mem.Request, set int) {
	if c.seen.add(c.mapper.LineID(req.Addr)) {
		c.st.L1DCompulsory++
	}
	c.acceptAccess(req, set)
}

// blocked resolves a non-serviceable access from the scheme's table:
// either the request bypasses, or it stalls and the LD/ST pipeline
// register retries next cycle.
func (c *L1D) blocked(req *mem.Request, set int, why policy.Block) mem.AccessOutcome {
	if c.onBlocked[why] == policy.Bypass {
		return c.doBypass(req, set)
	}
	c.st.L1DStalls++
	return mem.OutcomeStall
}

// Epoch is the park token: an access that just stalled stalls again for
// as long as Epoch is what it was then.
func (c *L1D) Epoch() uint64 { return c.epoch }

// CreditStalls counts n stall cycles a parked access slept through: one
// per cycle it would have been replayed and refused.
func (c *L1D) CreditStalls(n uint64) { c.st.L1DStalls += n }

// WouldStall re-derives, without touching any state, whether Access(req)
// would stall right now. It is the reference the self-checks hold a
// parked access to.
func (c *L1D) WouldStall(req *mem.Request) bool {
	if req.Store {
		return false
	}
	var why policy.Block
	switch set, _, res := c.ta.Probe(req.Addr); {
	case res == cache.ProbeHit:
		return false
	case res == cache.ProbeReserved:
		if c.mshr.CanMerge(c.mshr.Lookup(req.Addr)) {
			return false
		}
		why = policy.BlockNoMerge
	case c.mshr.Full() || c.missQ.Full():
		why = policy.BlockStructural
	case c.ta.VictimIn(set, c.eligible) < 0:
		why = policy.BlockNoVictim
	default:
		return false
	}
	return c.onBlocked[why] == policy.Stall
}

// Access presents one line-granularity request to the cache and returns
// how it was handled. OutcomeStall means the request was not accepted and
// the LD/ST pipeline register must retry next cycle.
func (c *L1D) Access(req *mem.Request) mem.AccessOutcome {
	if req.Store {
		return c.accessStore(req)
	}
	set, way, res := c.ta.Probe(req.Addr)
	switch res {
	case cache.ProbeHit:
		c.acceptAccess(req, set)
		c.pol.OnHit(req, set, &c.ta.Set(set)[way])
		c.ta.Touch(set, way)
		c.st.L1DHits++
		c.st.L1DTraffic++
		c.hitQ.Push(hitResponse{readyAt: c.now + uint64(c.cfg.L1DHitLatency), req: req})
		return mem.OutcomeHit

	case cache.ProbeReserved:
		e := c.mshr.Lookup(req.Addr)
		if e == nil {
			panic(fmt.Sprintf("core: reserved line %#x without MSHR entry", uint64(req.Addr)))
		}
		if !c.mshr.CanMerge(e) {
			return c.blocked(req, set, policy.BlockNoMerge)
		}
		c.acceptAccess(req, set)
		c.mshr.Merge(e, req)
		c.st.L1DMisses++
		c.st.L1DTraffic++
		return mem.OutcomeMiss

	default: // ProbeMiss
		return c.accessMiss(req, set)
	}
}

// accessMiss handles a load that matched nothing in the TDA.
func (c *L1D) accessMiss(req *mem.Request, set int) mem.AccessOutcome {
	// Structural hazards: a serviced miss needs an MSHR entry and a
	// miss-queue slot.
	if c.mshr.Full() || c.missQ.Full() {
		return c.blocked(req, set, policy.BlockStructural)
	}

	victim := c.ta.VictimIn(set, c.eligible)
	if victim < 0 {
		// Every line in the set is reserved or protected.
		return c.blocked(req, set, policy.BlockNoVictim)
	}

	if !c.pol.Admit(req, set) {
		return c.doBypass(req, set)
	}

	c.acceptUncached(req, set)

	evicted := c.ta.Reserve(set, victim, req.Addr)
	if evicted.Valid {
		c.st.L1DEvictions++
	}
	ln := &c.ta.Set(set)[victim]
	ln.InsnID = req.InsnID
	c.pol.OnMiss(req, set, ln, evicted)
	c.mshr.Allocate(req, set, victim)
	if !c.missQ.Push(req) {
		panic("core: miss queue full after capacity check")
	}
	c.st.L1DMisses++
	c.st.L1DTraffic++
	return mem.OutcomeMiss
}

// doBypass sends req around the cache. The bypass path never stalls
// (it has its own queue sharing only the ICNT injection port).
func (c *L1D) doBypass(req *mem.Request, set int) mem.AccessOutcome {
	c.acceptUncached(req, set)
	c.pol.OnBypass(req, set)
	req.Bypass = true
	c.bypsQ.Push(req)
	c.st.L1DBypasses++
	return mem.OutcomeBypass
}

// accessStore implements write-through, write-no-allocate stores with
// write-evict on hit (Fermi global-store semantics). Stores never stall
// and never receive responses.
func (c *L1D) accessStore(req *mem.Request) mem.AccessOutcome {
	set, way, res := c.ta.Probe(req.Addr)
	if res == cache.ProbeHit {
		c.ta.Invalidate(set, way)
	}
	c.bypsQ.Push(req)
	c.st.StoreAccesses++
	return mem.OutcomeBypass
}

// PopOutgoing hands the next fetch/store packet to the interconnect, or
// nil when nothing is pending. Serviced misses drain before the bypass
// path.
func (c *L1D) PopOutgoing() *mem.Request {
	if r := c.missQ.Pop(); r != nil {
		c.epoch++ // a miss-queue slot came free
		return r
	}
	return c.bypsQ.Pop()
}

// HasOutgoing reports whether PopOutgoing would return a packet.
func (c *L1D) HasOutgoing() bool {
	return !c.missQ.Empty() || !c.bypsQ.Empty()
}

// OnResponse accepts a returning fetch from the interconnect: bypassed
// requests go straight to the warp; serviced misses fill their reserved
// line and release every merged request.
func (c *L1D) OnResponse(req *mem.Request) {
	if req.Store {
		panic("core: store received a response")
	}
	if req.Bypass {
		c.deliver(req)
		return
	}
	c.epoch++ // an MSHR entry comes free and its line becomes valid
	e := c.mshr.Release(req.Addr)
	if e == nil {
		panic(fmt.Sprintf("core: response for %#x without MSHR entry", uint64(req.Addr)))
	}
	c.ta.Fill(e.Set, e.Way)
	ln := &c.ta.Set(e.Set)[e.Way]
	ln.InsnID = req.InsnID
	c.pol.OnFill(req, ln)
	for _, r := range e.Requests {
		c.deliver(r)
	}
	c.mshr.Recycle(e)
}

// Pending reports outstanding work: queued packets, live MSHR entries, or
// undelivered hits. The engine uses it to detect quiescence.
func (c *L1D) Pending() bool {
	return c.HasOutgoing() || c.mshr.Size() > 0 || c.hitQ.Len() > 0
}
