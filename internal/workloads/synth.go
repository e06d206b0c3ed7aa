package workloads

import (
	"encoding/json"
	"fmt"

	"repro/internal/addr"
	"repro/internal/trace"
)

// SynthSpec describes a seeded synthetic kernel built by the
// adversarial pattern mixer. Unlike the Table 2 generators — which
// model real applications' loop nests — a SynthSpec exists to visit
// corners of the access-pattern space mechanically: the conformance
// fuzzer draws random specs, the corpus commits interesting ones, and
// the shrinker bisects a failing spec's fields toward the smallest
// kernel that still reproduces a failure.
//
// Everything is derived from Seed through SplitMix64, so a spec is a
// complete, JSON-serializable description of its kernel: equal specs
// generate byte-identical traces on every host.
//
// The mixer draws each memory instruction's pattern from the weighted
// classes below (weights are relative; all zero means pure streaming):
//
//   - Stream: sequential full-line loads walking the footprint — the
//     compulsory-miss, fast-forward-friendly regime.
//   - Stride: partially coalesced loads whose lanes span several
//     consecutive lines (column-major / SoA code).
//   - Gather: fully diverged loads, one random line per lane — the
//     MSHR- and miss-queue-thrashing regime.
//   - Hot: repeated full-line loads over a tiny working set — the
//     high-reuse regime protection schemes must not evict.
//   - Conflict: full-line loads striding by a fixed line distance, so
//     a power-of-two stride folds onto few cache sets — the
//     set-conflict regime that starves victim selection.
type SynthSpec struct {
	Name string `json:"name,omitempty"`
	Seed uint64 `json:"seed"`

	Blocks          int `json:"blocks"`                // thread blocks (min 1)
	WarpsPerBlock   int `json:"warps_per_block"`       // warps per block (min 1)
	MemInsnsPerWarp int `json:"mem_insns_per_warp"`    // memory instructions per warp (min 1)
	ComputeRun      int `json:"compute_run,omitempty"` // compute insns between memory insns

	FootprintLines int `json:"footprint_lines"`     // shared region size in lines (min 1)
	HotLines       int `json:"hot_lines,omitempty"` // hot-set size; 0 means 4
	StorePct       int `json:"store_pct,omitempty"` // % of memory insns that are stores

	StreamPct   int `json:"stream_pct,omitempty"`
	StridePct   int `json:"stride_pct,omitempty"`
	GatherPct   int `json:"gather_pct,omitempty"`
	HotPct      int `json:"hot_pct,omitempty"`
	ConflictPct int `json:"conflict_pct,omitempty"`

	StrideLines         int `json:"stride_lines,omitempty"`          // lines one stride load spans; 0 means 4
	ConflictStrideLines int `json:"conflict_stride_lines,omitempty"` // conflict stride; 0 means 32

	// PhaseLen, when positive, rotates the chosen pattern class by
	// PhaseRotate every PhaseLen memory instructions — the irregular
	// phase-change regime (a kernel that streams, then gathers, then
	// hammers a hot set) that stresses sampling-period turnover. Zero
	// keeps the stationary mixer.
	PhaseLen    int `json:"phase_len,omitempty"`
	PhaseRotate int `json:"phase_rotate,omitempty"` // classes per rotation; 0 means 1
}

// withDefaults clamps the spec to generate-able values without
// mutating the receiver, so a shrunk spec's JSON stays exactly what
// the shrinker chose.
func (s SynthSpec) withDefaults() SynthSpec {
	if s.Blocks < 1 {
		s.Blocks = 1
	}
	if s.WarpsPerBlock < 1 {
		s.WarpsPerBlock = 1
	}
	if s.MemInsnsPerWarp < 1 {
		s.MemInsnsPerWarp = 1
	}
	if s.ComputeRun < 0 {
		s.ComputeRun = 0
	}
	if s.FootprintLines < 1 {
		s.FootprintLines = 1
	}
	if s.HotLines <= 0 {
		s.HotLines = 4
	}
	if s.HotLines > s.FootprintLines {
		s.HotLines = s.FootprintLines
	}
	if s.StorePct < 0 {
		s.StorePct = 0
	}
	if s.StorePct > 100 {
		s.StorePct = 100
	}
	if s.StrideLines <= 0 {
		s.StrideLines = 4
	}
	if s.ConflictStrideLines <= 0 {
		s.ConflictStrideLines = 32
	}
	if s.PhaseLen < 0 {
		s.PhaseLen = 0
	}
	if s.PhaseLen > 0 && s.PhaseRotate <= 0 {
		s.PhaseRotate = 1
	}
	neg := func(v int) bool { return v < 0 }
	if neg(s.StreamPct) || neg(s.StridePct) || neg(s.GatherPct) || neg(s.HotPct) || neg(s.ConflictPct) {
		s.StreamPct, s.StridePct, s.GatherPct, s.HotPct, s.ConflictPct = 1, 0, 0, 0, 0
	}
	if s.StreamPct+s.StridePct+s.GatherPct+s.HotPct+s.ConflictPct == 0 {
		s.StreamPct = 1
	}
	return s
}

// Validate reports obviously unusable field values. The generator
// clamps everything anyway, but the corpus loader rejects malformed
// committed specs loudly instead of silently reinterpreting them.
func (s SynthSpec) Validate() error {
	bad := func(field string, v int) error {
		return fmt.Errorf("workloads: synth spec %q: %s = %d is not positive", s.Name, field, v)
	}
	switch {
	case s.Blocks < 1:
		return bad("blocks", s.Blocks)
	case s.WarpsPerBlock < 1:
		return bad("warps_per_block", s.WarpsPerBlock)
	case s.MemInsnsPerWarp < 1:
		return bad("mem_insns_per_warp", s.MemInsnsPerWarp)
	case s.FootprintLines < 1:
		return bad("footprint_lines", s.FootprintLines)
	}
	const maxKernelMemInsns = 1 << 24
	total := s.Blocks * s.WarpsPerBlock * s.MemInsnsPerWarp
	if s.Blocks > maxKernelMemInsns || s.WarpsPerBlock > maxKernelMemInsns ||
		s.MemInsnsPerWarp > maxKernelMemInsns || total > maxKernelMemInsns {
		return fmt.Errorf("workloads: synth spec %q: %d memory instructions exceeds the %d cap",
			s.Name, total, maxKernelMemInsns)
	}
	return nil
}

// pattern classes, in weight order.
const (
	patStream = iota
	patStride
	patGather
	patHot
	patConflict
	numPatterns
)

// Kernel generates the spec's kernel. PCs are stable across warps —
// one PC per (pattern, load/store) class — so per-instruction
// machinery (PDPT attribution, dead-block tables) sees the same static
// instructions from every warp, as it would in compiled code.
func (s SynthSpec) Kernel() *trace.Kernel {
	return s.gridSpec().Kernel()
}

// Stream returns the spec's kernel as a lazily generated stream whose
// windows are byte-identical to Kernel's output. The cache key is the
// spec's own canonical JSON — a synth kernel is fully defined by it.
func (s SynthSpec) Stream() trace.Stream {
	d := s.withDefaults()
	js, err := json.Marshal(d)
	if err != nil {
		panic(fmt.Sprintf("workloads: synth spec not marshalable: %v", err))
	}
	return newGridStream(s.gridSpec(), "synth:v1:"+string(js))
}

// Scaled multiplies the grid and footprint by n (n <= 1 returns the
// spec unchanged) — the synth counterpart of Spec.Stream's scale knob.
func (s SynthSpec) Scaled(n int) SynthSpec {
	if n > 1 {
		s.Blocks *= n
		s.FootprintLines *= n
	}
	return s
}

// gridSpec defers generation behind the shared grid machinery; the
// build closure's draw order is pinned by the committed conformance
// corpus, so it must not change.
func (s SynthSpec) gridSpec() gridSpec {
	s = s.withDefaults()
	name := s.Name
	if name == "" {
		name = fmt.Sprintf("synth-%x", s.Seed)
	}
	var mem layout
	base := mem.array(s.FootprintLines)
	weights := [numPatterns]int{s.StreamPct, s.StridePct, s.GatherPct, s.HotPct, s.ConflictPct}
	totalWeight := 0
	for _, w := range weights {
		totalWeight += w
	}

	return gridSpec{name: name, blocks: s.Blocks, warps: s.WarpsPerBlock, mem: mem,
		build: func(b *wb, block, warp int) {
			r := seedFor(s.Seed, block, warp)
			var gather [warpLanes]addr.Addr    // one gather's lanes, built in place
			cursor := r.Intn(s.FootprintLines) // per-warp streaming position
			for i := 0; i < s.MemInsnsPerWarp && !b.full(); i++ {
				if s.ComputeRun > 0 {
					b.compute(0, s.ComputeRun)
				}
				roll := r.Intn(totalWeight)
				pat := 0
				for pat < numPatterns-1 && roll >= weights[pat] {
					roll -= weights[pat]
					pat++
				}
				if s.PhaseLen > 0 {
					pat = (pat + (i/s.PhaseLen)*s.PhaseRotate) % numPatterns
				}
				store := r.Intn(100) < s.StorePct
				// PC 0 is compute; memory PCs start at 1, stores offset by
				// numPatterns so loads and stores never share attribution.
				pc := uint32(1 + pat)
				if store {
					pc += numPatterns
				}
				var target addr.Addr
				switch pat {
				case patStream:
					target = lineAt(base, cursor%s.FootprintLines)
					cursor++
				case patStride:
					span := s.StrideLines
					if span > s.FootprintLines {
						span = s.FootprintLines
					}
					start := r.Intn(max(s.FootprintLines-span+1, 1))
					if store {
						b.storeVec(pc, lineAt(base, start))
					} else {
						b.loadSpan(pc, lineAt(base, start), span)
					}
					continue
				case patGather:
					// A gather that is not materialized skips its lanes'
					// draws; the emit still advances (and counts) it.
					if b.materializes() {
						for l := range gather {
							gather[l] = lineAt(base, r.Intn(s.FootprintLines))
						}
					} else {
						r.Skip(len(gather))
					}
					if store {
						b.storeGather(pc, gather[:])
					} else {
						b.loadGather(pc, gather[:])
					}
					continue
				case patHot:
					target = lineAt(base, r.Intn(s.HotLines))
				case patConflict:
					steps := s.FootprintLines/s.ConflictStrideLines + 1
					target = lineAt(base, (r.Intn(steps)*s.ConflictStrideLines)%s.FootprintLines)
				}
				if store {
					b.storeVec(pc, target)
				} else {
					b.loadVec(pc, target)
				}
			}
		}}
}
