package policy

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// agePLs decrements every protected line in a queried set by one
// (§4.1.1: "When a set is queried, PL values of all TDA entries
// belonging to this set are decreased by 1").
func agePLs(lines []cache.Line) {
	for w := range lines {
		if lines[w].PL > 0 {
			lines[w].PL--
		}
	}
}

// baseline is stall-and-retry LRU: the unmodified L1D. Every blocked
// access stalls; replacement is plain LRU; no protection state exists.
type baseline struct {
	Base
	h *Host
}

func (p *baseline) Reset(h *Host) { p.h = h }

func (p *baseline) CheckInvariants() error {
	return checkNoProtectionTDA(p.h, config.PolicyBaseline)
}

// stallBypass bypasses the L1D whenever the access would stall —
// whatever the reason (its Spec's table) — and is otherwise the
// baseline.
type stallBypass struct {
	Base
	h *Host
}

func (p *stallBypass) Reset(h *Host) { p.h = h }

func (p *stallBypass) CheckInvariants() error {
	return checkNoProtectionTDA(p.h, config.PolicyStallBypass)
}

// protect implements the paper's two protection schemes over the shared
// VTA + PDPT + sampler hardware: Global-Protection (one PD for every
// instruction, global=true) and DLP (per-instruction PDs). Misses into
// a fully protected set bypass rather than wait (§4.1.1); structural
// and merge-capacity blocks stall like the baseline (bypassNoVictim).
type protect struct {
	Base
	h       *Host
	vta     *VTA
	pdpt    *PDPT
	sampler *Sampler
}

func newProtect(h *Host, global bool) *protect {
	p := &protect{vta: &VTA{}, pdpt: &PDPT{global: global}, sampler: &Sampler{}}
	p.Reset(h)
	return p
}

// Reset re-initialises the VTA, the PDPT (which keeps its
// Global-Protection mode) and the sampler in place.
func (p *protect) Reset(h *Host) {
	p.h = h
	p.vta.Reset(h.Cfg.L1D.Sets, h.Cfg.VTAWays)
	p.pdpt.Reset(h.Cfg.PDPTEntries, h.Cfg.VTAWays, h.Cfg.MaxPD())
	p.sampler.Reset(h.Cfg.SampleAccesses, h.Cfg.SampleInsnCap)
}

// PDPT exposes the prediction table (the PDPTCarrier capability).
func (p *protect) PDPT() *PDPT { return p.pdpt }

func (p *protect) OnAccess(req *mem.Request, set int) {
	if p.sampler.NoteAccess() {
		p.pdpt.EndSample()
	}
	agePLs(p.h.Tags.Set(set))
}

func (p *protect) NoteInstructions(n uint64) {
	if p.sampler.NoteInstructions(n) {
		p.pdpt.EndSample()
	}
}

// plExpired restricts victims to lines whose protected life expired.
func plExpired(*Host) func(*cache.Line) bool {
	return func(l *cache.Line) bool { return l.PL == 0 }
}

func (p *protect) OnHit(req *mem.Request, _ int, ln *cache.Line) {
	// The hit is credited to the instruction that brought in or last hit
	// the line; the line then belongs to the hitting instruction and
	// receives its protection distance (§4.1.1).
	p.pdpt.CreditTDA(ln.InsnID)
	ln.InsnID = req.InsnID
	ln.PL = p.pdpt.PD(req.InsnID)
}

func (p *protect) OnMiss(req *mem.Request, set int, _ *cache.Line, evicted cache.Line) {
	// The allocating miss refetches the line, so a VTA hit retires the
	// entry while crediting the stored instruction — looked up before the
	// victim's tag goes in, which may push that very entry out.
	if id, ok := p.vta.Lookup(set, p.h.Mapper.Tag(req.Addr)); ok {
		p.pdpt.CreditVTA(id)
		p.h.Stats.VTAHits++
	}
	p.vta.InsertVictim(set, evicted)
}

func (p *protect) OnBypass(req *mem.Request, set int) {
	// Bypassed misses observe reuse without refetching, so the VTA entry
	// is peeked, not consumed.
	if id, ok := p.vta.Peek(set, p.h.Mapper.Tag(req.Addr)); ok {
		p.pdpt.CreditVTA(id)
		p.h.Stats.VTAHits++
	}
}

func (p *protect) OnFill(req *mem.Request, ln *cache.Line) {
	// The line receives its instruction's protection distance when the
	// fill lands (the access that allocated it "writes the PD value to
	// the PL field", §4.1.1).
	ln.PL = p.pdpt.PD(req.InsnID)
}

func (p *protect) CheckInvariants() error {
	if err := checkProtectedTDA(p.h); err != nil {
		return err
	}
	if err := p.pdpt.CheckInvariants(); err != nil {
		return err
	}
	return p.vta.CheckGeometry(p.h.Cfg.L1D.Sets, p.h.Cfg.VTAWays)
}

func (p *protect) RegisterMetrics(reg *metrics.Registry, prefix string) {
	p.vta.RegisterMetrics(reg, prefix+".vta")
	p.pdpt.RegisterMetrics(reg, prefix+".pdpt")
}
