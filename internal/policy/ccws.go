package policy

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// ccws is a cache-side rendition of the CCWS locality detector (Rogers
// et al., MICRO 2012): a victim tag array records evicted tags, and a
// refetch that hits the VTA is lost intra-warp locality — the line was
// thrown away while still live. Where full CCWS throttles the warp
// scheduler, this lightweight variant protects the refetched line at
// insertion so the locality survives its second residency.
//
// The protection lifetime has two encodings, toggled by
// cfg.CCWSByCycles (the protection-type switch of SNIPPETS.md snippet
// 2): accesses mode stores a set-query countdown in PL (aged like
// DLP's protected lives), cycles mode stores an absolute expiry cycle
// in PL and never ages it — the line simply becomes evictable once the
// core clock passes the deadline.
type ccws struct {
	Base
	h        *Host
	vta      *VTA
	byCycles bool
	lifetime int

	lost      uint64 // lost-locality detections (VTA hits)
	protected uint64 // protections granted at insertion
}

func newCCWS(h *Host) *ccws {
	life := h.Cfg.CCWSProtectAccesses
	if h.Cfg.CCWSByCycles {
		life = h.Cfg.CCWSProtectCycles
	}
	return &ccws{
		h:        h,
		vta:      NewVTA(h.Cfg.L1D.Sets, h.Cfg.VTAWays),
		byCycles: h.Cfg.CCWSByCycles,
		lifetime: life,
	}
}

func (p *ccws) OnAccess(_ *mem.Request, set int) {
	// Accesses mode ages protections per set query, like DLP; cycles
	// mode leaves PL alone — expiry is judged against the clock.
	if !p.byCycles {
		agePLs(p.h.Tags.Set(set))
	}
}

// ccwsEligible shields a line until its countdown reaches zero
// (accesses mode) or the core clock reaches its deadline (cycles mode).
func ccwsEligible(h *Host) func(*cache.Line) bool {
	if h.Cfg.CCWSByCycles {
		now := h.Now
		return func(l *cache.Line) bool { return l.PL == 0 || uint64(l.PL) <= now() }
	}
	return plExpired(h)
}

// OnMiss records the displaced tag, then grants protection when the
// incoming line's tag is found in the VTA: the line was evicted with
// locality outstanding, so its second residency is shielded. The VTA
// entry is consumed — the line is back in the cache.
func (p *ccws) OnMiss(req *mem.Request, set int, ln *cache.Line, evicted cache.Line) {
	p.vta.InsertVictim(set, evicted)
	if _, ok := p.vta.Lookup(set, p.h.Mapper.Tag(req.Addr)); !ok {
		return
	}
	p.lost++
	p.h.Stats.VTAHits++
	p.protected++
	if p.byCycles {
		ln.PL = int(p.h.Now()) + p.lifetime
	} else {
		ln.PL = p.lifetime
	}
}

func (p *ccws) OnBypass(req *mem.Request, set int) {
	// A bypassed access that matches the VTA is still lost locality;
	// peek (don't consume) since the line stays out of the cache.
	if _, ok := p.vta.Peek(set, p.h.Mapper.Tag(req.Addr)); ok {
		p.lost++
		p.h.Stats.VTAHits++
	}
}

func (p *ccws) CheckInvariants() error {
	for s := 0; s < p.h.Tags.NumSets(); s++ {
		protected := 0
		lines := p.h.Tags.Set(s)
		for w := range lines {
			ln := &lines[w]
			switch {
			case p.byCycles:
				if ln.PL < 0 {
					return &InvariantError{
						Component: "TDA",
						Check:     "pl-deadline",
						Detail:    fmt.Sprintf("set %d way %d: PL=%d is not a valid expiry cycle", s, w, ln.PL),
					}
				}
				if uint64(ln.PL) > p.h.Now() {
					protected++
				}
			default:
				if ln.PL < 0 || ln.PL > p.lifetime {
					return &InvariantError{
						Component: "TDA",
						Check:     "pl-range",
						Detail: fmt.Sprintf("set %d way %d: PL=%d outside [0,%d] (CCWSProtectAccesses=%d)",
							s, w, ln.PL, p.lifetime, p.lifetime),
					}
				}
				if ln.PL > 0 {
					protected++
				}
			}
		}
		if protected > p.h.Cfg.L1D.Ways {
			return &InvariantError{
				Component: "TDA",
				Check:     "protected-bound",
				Detail: fmt.Sprintf("set %d: %d protected lines exceed associativity %d",
					s, protected, p.h.Cfg.L1D.Ways),
			}
		}
	}
	return p.vta.CheckGeometry(p.h.Cfg.L1D.Sets, p.h.Cfg.VTAWays)
}

func (p *ccws) RegisterMetrics(reg *metrics.Registry, prefix string) {
	p.vta.RegisterMetrics(reg, prefix+".vta")
	reg.Counter(prefix+".ccws.lost_locality", &p.lost)
	reg.Counter(prefix+".ccws.protected", &p.protected)
}
