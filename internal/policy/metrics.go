package policy

import "repro/internal/metrics"

// RegisterMetrics registers the victim tag array's live-entry gauge.
func (v *VTA) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.IntGauge(prefix+".entries", v.Len)
}

// RegisterMetrics registers the prediction table's sampling progress
// and protection-distance level. grows/shrinks count the sampling
// periods that took Fig. 9's increase and decrease paths (hold is
// samples minus both). The hit counters are per-period levels
// (EndSample resets them), so they are gauges, not counters;
// pd.sum/pd.max summarize the current protection distances across all
// table entries — the adaptation signal Figs. 8–9 are about.
func (p *PDPT) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.Counter(prefix+".samples", &p.samples)
	reg.Counter(prefix+".grows", &p.grows)
	reg.Counter(prefix+".shrinks", &p.shrinks)
	reg.Gauge(prefix+".tda_hits", func() uint64 { return p.globalTDA })
	reg.Gauge(prefix+".vta_hits", func() uint64 { return p.globalVTA })
	reg.Gauge(prefix+".pd.sum", func() uint64 {
		var sum uint64
		for _, d := range p.pd {
			sum += uint64(d)
		}
		return sum
	})
	reg.Gauge(prefix+".pd.max", func() uint64 {
		var m int
		for _, d := range p.pd {
			if d > m {
				m = d
			}
		}
		return uint64(m)
	})
}
