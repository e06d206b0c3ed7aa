package policy

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// ata implements aggregated-tag-array admission, after ATA-Cache
// (arXiv:2302.10638): a tag-only array several times wider than the
// data store tracks recently referenced lines, and a miss allocates a
// data line only when its tag is already present — i.e. the line has
// demonstrated a second touch. First touches bypass, so streaming
// (zero-reuse) traffic never displaces resident lines, which is the
// contention the scheme mitigates on shared L1s. Nothing ever stalls:
// like Stall-Bypass, every blocked access takes the bypass path.
//
// The aggregated array reuses the VTA structure (tags + LRU); its
// associativity is cfg.ATAWays per L1D set.
type ata struct {
	Base
	h    *Host
	tags *VTA // aggregated tag array: tag-only recency, no data

	admits     uint64 // misses admitted on aggregated-tag evidence
	firstTouch uint64 // first-touch misses sent down the bypass path
}

func newATA(h *Host) *ata {
	return &ata{h: h, tags: NewVTA(h.Cfg.L1D.Sets, h.Cfg.ATAWays)}
}

// Admit consults and trains the aggregated array: a miss whose tag is
// already tracked allocates; an untracked tag is recorded and bypassed,
// so its next miss within the array's reach is admitted.
func (p *ata) Admit(req *mem.Request, set int) bool {
	tag := p.h.Mapper.Tag(req.Addr)
	_, seen := p.tags.Peek(set, tag)
	p.tags.Insert(set, tag, req.InsnID)
	if seen {
		p.admits++
		return true
	}
	p.firstTouch++
	return false
}

func (p *ata) OnHit(req *mem.Request, set int, _ *cache.Line) {
	// Keep hot tags resident in the aggregated array so a line that is
	// evicted while still hot re-admits immediately.
	p.tags.Insert(set, p.h.Mapper.Tag(req.Addr), req.InsnID)
}

func (p *ata) OnMiss(_ *mem.Request, set int, _ *cache.Line, evicted cache.Line) {
	p.tags.InsertVictim(set, evicted)
}

func (p *ata) CheckInvariants() error {
	if err := checkNoProtectionTDA(p.h, config.PolicyATA); err != nil {
		return err
	}
	if err := p.tags.CheckGeometry(p.h.Cfg.L1D.Sets, p.h.Cfg.ATAWays); err != nil {
		return err
	}
	return nil
}

func (p *ata) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.IntGauge(prefix+".ata.entries", p.tags.Len)
	reg.Counter(prefix+".ata.admits", &p.admits)
	reg.Counter(prefix+".ata.first_touch_bypasses", &p.firstTouch)
}
