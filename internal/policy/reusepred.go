package policy

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/mem"
	"repro/internal/metrics"
)

// reusePred is an online per-PC reuse predictor in the spirit of the
// ML-based GPU caching work (arXiv:2509.20979), built entirely from the
// signals the paper's hardware already collects: per-instruction TDA
// hits (reuse while resident) and VTA hits (reuse after eviction). A
// table indexed like the PDPT accumulates both per sampling period; an
// instruction whose lines show no reuse for PredictorDeadPeriods
// consecutive periods is predicted dead and its misses bypass the
// cache. Bypassed tags are still inserted into the VTA, so a
// mispredicted instruction's reuse surfaces as VTA evidence and
// resurrects it immediately — the misprediction feedback loop.
type reusePred struct {
	Base
	h       *Host
	vta     *VTA
	sampler *Sampler
	table   []predEntry

	deadPeriods int

	bypassPredictions uint64 // misses bypassed on a dead prediction
	flips             uint64 // alive<->dead transitions
	mispredicts       uint64 // dead entries resurrected by observed reuse
}

// predEntry accumulates one instruction's activity and reuse evidence
// for the current sampling period, plus its prediction state.
type predEntry struct {
	allocs   uint64 // lines allocated this period
	bypasses uint64 // misses bypassed this period
	tdaHits  uint64 // reuse observed while resident
	vtaHits  uint64 // reuse observed after eviction/bypass
	streak   int    // consecutive reuse-free periods with activity
	dead     bool   // predicted dead: bypass this instruction's misses
}

func newReusePredictor(h *Host) *reusePred {
	p := &reusePred{vta: &VTA{}, sampler: &Sampler{}}
	p.Reset(h)
	return p
}

func (p *reusePred) Reset(h *Host) {
	*p = reusePred{
		h:           h,
		vta:         p.vta,
		sampler:     p.sampler,
		table:       zeroed(p.table, h.Cfg.PDPTEntries),
		deadPeriods: h.Cfg.PredictorDeadPeriods,
	}
	p.vta.Reset(h.Cfg.L1D.Sets, h.Cfg.VTAWays)
	p.sampler.Reset(h.Cfg.SampleAccesses, h.Cfg.SampleInsnCap)
}

func (p *reusePred) idx(insnID uint8) int { return int(insnID) % len(p.table) }

func (p *reusePred) OnAccess(*mem.Request, int) {
	if p.sampler.NoteAccess() {
		p.endPeriod()
	}
}

func (p *reusePred) NoteInstructions(n uint64) {
	if p.sampler.NoteInstructions(n) {
		p.endPeriod()
	}
}

// endPeriod retrains the table: reuse clears the dead streak (and
// resurrects), a period of activity without reuse lengthens it, and a
// streak reaching deadPeriods flips the instruction to dead.
func (p *reusePred) endPeriod() {
	for i := range p.table {
		e := &p.table[i]
		switch {
		case e.tdaHits+e.vtaHits > 0:
			e.streak = 0
			if e.dead {
				e.dead = false
				p.flips++
			}
		case e.allocs+e.bypasses > 0:
			e.streak++
			if !e.dead && e.streak >= p.deadPeriods {
				e.dead = true
				p.flips++
			}
		}
		e.allocs, e.bypasses, e.tdaHits, e.vtaHits = 0, 0, 0, 0
	}
}

// Admit bypasses misses of instructions predicted dead.
func (p *reusePred) Admit(req *mem.Request, _ int) bool {
	if p.table[p.idx(req.InsnID)].dead {
		p.bypassPredictions++
		return false
	}
	return true
}

func (p *reusePred) OnHit(req *mem.Request, _ int, ln *cache.Line) {
	// Reuse is credited to the instruction that owned the line, then
	// ownership transfers — the same attribution chain DLP uses.
	p.table[p.idx(ln.InsnID)].tdaHits++
	ln.InsnID = req.InsnID
}

// OnMiss counts the allocation and credits post-eviction reuse before
// the displaced tag goes into the VTA (the same order DLP uses).
func (p *reusePred) OnMiss(req *mem.Request, set int, _ *cache.Line, evicted cache.Line) {
	p.table[p.idx(req.InsnID)].allocs++
	if id, ok := p.vta.Lookup(set, p.h.Mapper.Tag(req.Addr)); ok {
		p.h.Stats.VTAHits++
		p.creditVTA(id)
	}
	p.vta.InsertVictim(set, evicted)
}

// creditVTA records post-eviction reuse for owner and resurrects it if
// it was predicted dead — the line was live after all.
func (p *reusePred) creditVTA(owner uint8) {
	e := &p.table[p.idx(owner)]
	e.vtaHits++
	if e.dead {
		e.dead = false
		e.streak = 0
		p.flips++
		p.mispredicts++
	}
}

func (p *reusePred) OnBypass(req *mem.Request, set int) {
	tag := p.h.Mapper.Tag(req.Addr)
	p.table[p.idx(req.InsnID)].bypasses++
	if id, ok := p.vta.Peek(set, tag); ok {
		p.h.Stats.VTAHits++
		p.creditVTA(id)
	}
	// Track the bypassed tag so future references to it count as reuse
	// evidence — without this, a dead prediction could never be refuted
	// by the lines it suppresses.
	p.vta.Insert(set, tag, req.InsnID)
}

func (p *reusePred) CheckInvariants() error {
	if err := checkNoProtectionTDA(p.h, config.PolicyReusePredictor); err != nil {
		return err
	}
	for i := range p.table {
		e := &p.table[i]
		if e.streak < 0 {
			return &InvariantError{
				Component: "predictor",
				Check:     "streak-range",
				Detail:    fmt.Sprintf("entry %d: negative dead streak %d", i, e.streak),
			}
		}
		if e.dead && e.streak < p.deadPeriods {
			return &InvariantError{
				Component: "predictor",
				Check:     "dead-streak",
				Detail: fmt.Sprintf("entry %d: dead with streak %d < PredictorDeadPeriods %d",
					i, e.streak, p.deadPeriods),
			}
		}
	}
	return p.vta.CheckGeometry(p.h.Cfg.L1D.Sets, p.h.Cfg.VTAWays)
}

func (p *reusePred) RegisterMetrics(reg *metrics.Registry, prefix string) {
	p.vta.RegisterMetrics(reg, prefix+".vta")
	reg.Counter(prefix+".pred.bypass_predictions", &p.bypassPredictions)
	reg.Counter(prefix+".pred.flips", &p.flips)
	reg.Counter(prefix+".pred.mispredicts", &p.mispredicts)
	reg.IntGauge(prefix+".pred.dead", func() int {
		n := 0
		for i := range p.table {
			if p.table[i].dead {
				n++
			}
		}
		return n
	})
}
