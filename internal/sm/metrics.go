package sm

import "repro/internal/metrics"

// RegisterMetrics registers the SM's instruction counters, scheduler
// occupancy gauges, and its L1D (with the cache's own subcomponents)
// under prefix (e.g. "sm3").
func (s *SM) RegisterMetrics(reg *metrics.Registry, prefix string) {
	reg.Counter(prefix+".insns", &s.st.Instructions)
	reg.Counter(prefix+".warp_insns", &s.st.WarpInsns)
	reg.IntGauge(prefix+".live_warps", func() int { return s.liveWarps })
	reg.IntGauge(prefix+".finished_warps", s.finishedWarps)
	reg.IntGauge(prefix+".ldst.depth", func() int { return s.ldst.Len() })
	reg.IntGauge(prefix+".pending_blocks", s.pendingBlocks.Len)
	s.l1d.RegisterMetrics(reg, prefix+".l1d")
}
