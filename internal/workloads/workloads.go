// Package workloads provides deterministic synthetic generators for the
// 18 GPU applications the paper evaluates (Table 2). Real CUDA binaries
// and GPGPU-Sim traces are unavailable in this environment, so each
// generator emits a per-warp instruction/address trace computed from the
// application's actual loop-nest structure, scaled to simulator-friendly
// sizes and tuned to reproduce the two characteristics the paper's
// analysis rests on: the reuse-distance distribution (Fig. 3/7) and the
// memory-access ratio with its 1% cache-sufficient/insufficient split
// (Fig. 6, Table 2).
package workloads

import (
	"fmt"
	"sync"

	"repro/internal/trace"
)

// Class is the paper's cache-sufficiency classification.
type Class int

const (
	// CS applications have memory-access ratios under 1% and are not
	// limited by the L1D.
	CS Class = iota
	// CI applications exceed the 1% threshold and thrash the baseline L1D.
	CI
)

func (c Class) String() string {
	if c == CS {
		return "CS"
	}
	return "CI"
}

// RatioThreshold is the paper's CS/CI memory-access-ratio boundary (§3.2).
const RatioThreshold = 0.01

// Spec describes one benchmark application.
type Spec struct {
	Name     string // full name from Table 2
	Abbr     string // figure label
	Suite    string // originating benchmark suite
	Class    Class
	Input    string // the paper's input size (documentation only)
	Generate func() *trace.Kernel

	// gridGen is the scalable deferred generator behind Generate for
	// registry applications (nil for custom specs); Stream and
	// ScaledKernel derive from it.
	gridGen func(scale int) gridSpec

	// DominantBucket is the RD bucket (index into rdd.Buckets) expected
	// to dominate the application's RDD, or -1 when the paper shows a
	// spread across ranges. Used by validation tests.
	DominantBucket int
}

// GenVersion identifies the generators' trace content. Stream cache
// keys are spec-based ("app:HG:v1:scale1"), not content hashes, so any
// change to what a generator emits must bump this.
const GenVersion = 1

// app builds a registry entry from a scalable grid generator.
func app(name, abbr, suite string, class Class, input string, g func(int) gridSpec, bucket int) Spec {
	return Spec{
		Name: name, Abbr: abbr, Suite: suite, Class: class, Input: input,
		Generate:       func() *trace.Kernel { return g(1).Kernel() },
		gridGen:        g,
		DominantBucket: bucket,
	}
}

// registry lists the applications in the paper's Table 2 / figure order.
var registry = []Spec{
	app("Histogram", "HG", "CUDA Samples", CS, "67108864", gridHG, -1),
	app("Hotspot", "HS", "Rodinia", CS, "512x512", gridHS, 0),
	app("3-D Stencil Operation", "STEN", "Parboil", CS, "512x512x64", gridSTEN, 3),
	app("Separable Convolution", "SC", "Rodinia", CS, "2048x512", gridSC, 0),
	app("Back Propagation", "BP", "Rodinia", CS, "65536", gridBP, 0),
	app("Speckle Reducing Anisotropic Diffusion", "SRAD", "Rodinia", CS, "512x512", gridSRAD, 0),
	app("Needleman-Wunsch", "NW", "Rodinia", CS, "1024x1024", gridNW, -1),
	app("Matrix Multiply-add", "GEMM", "Polybench", CS, "512x512x512", gridGEMM, 0),
	app("B+tree", "BT", "Rodinia", CS, "6000x3000", gridBT, 0),
	app("Computational Fluid Dynamics", "CFD", "Rodinia", CI, "97046", gridCFD, 2),
	app("Page View Rank", "PVR", "Mars", CI, "250000", gridPVR, 1),
	app("Similarity Score", "SS", "Mars", CI, "512x128", gridSS, 2),
	app("Breadth-First Search", "BFS", "Rodinia", CI, "65536", gridBFS, -1),
	app("Matrix Multiplication", "MM", "Mars", CI, "256x256", gridMM, -1),
	app("Symmetric Rank-k", "SRK", "Polybench", CI, "256x256", gridSRK, 2),
	app("Symmetric Rank-2k", "SR2K", "Polybench", CI, "256x256", gridSR2K, 2),
	app("K-means", "KM", "Rodinia", CI, "204800", gridKM, 3),
	app("String Match", "STR", "Mars", CI, "354984", gridSTR, 3),
}

// All returns the 18 applications in Table 2 order.
func All() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	return out
}

// ByClass returns the applications of one class, preserving order.
func ByClass(c Class) []Spec {
	var out []Spec
	for _, s := range registry {
		if s.Class == c {
			out = append(out, s)
		}
	}
	return out
}

// ByAbbr finds an application by its figure label.
func ByAbbr(abbr string) (Spec, error) {
	for _, s := range registry {
		if s.Abbr == abbr {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown application %q", abbr)
}

// Abbrs returns all figure labels in order.
func Abbrs() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Abbr
	}
	return out
}

// sharedKernels memoizes generated kernels process-wide. Generation is
// deterministic and simulations never mutate a kernel (per-warp pc
// state lives in sm.warp), so every suite, test, and tool in the
// process can share one instance per application and line size. The
// memo is never emptied, so it only pays for callers that run many jobs
// over one kernel; a single pass over a trace (the workload analysis of
// Figs. 3, 4, 6 and 7) calls Generate and drops the kernel instead.
var (
	sharedMu      sync.Mutex
	sharedKernels = map[sharedKey]*trace.Kernel{}
)

type sharedKey struct {
	abbr     string
	lineSize int
}

// SharedKernel returns the application's kernel from a process-wide
// cache, generating it on first use and precomputing its coalesced
// line lists for the given cache line size. The returned kernel is
// shared and must be treated as read-only; registry applications are
// memoized by abbreviation, unknown (custom) specs are generated
// fresh on every call.
func (s Spec) SharedKernel(lineSize int) *trace.Kernel {
	reg, err := ByAbbr(s.Abbr)
	if err != nil || reg.Name != s.Name || reg.Suite != s.Suite ||
		reg.Class != s.Class || reg.Input != s.Input {
		// Not a registry application (or an abbreviation collision with
		// different metadata): generate fresh, never cache.
		k := s.Generate()
		k.PrecomputeCoalesced(lineSize)
		return k
	}
	key := sharedKey{s.Abbr, lineSize}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if k, ok := sharedKernels[key]; ok {
		return k
	}
	k := s.Generate()
	k.PrecomputeCoalesced(lineSize)
	sharedKernels[key] = k
	return k
}

// Stream returns a lazily generated trace.Stream of the application at
// the given scale factor (clamped to >= 1). Scale 1 streams exactly the
// trace Generate materializes; larger scales multiply the block count
// and shared footprints. Custom (non-registry) specs fall back to a
// precomputed-kernel compat stream.
func (s Spec) Stream(scale int) trace.Stream {
	if scale < 1 {
		scale = 1
	}
	if s.gridGen == nil {
		return trace.NewKernelStream(s.Generate())
	}
	key := fmt.Sprintf("app:%s:v%d:scale%d", s.Abbr, GenVersion, scale)
	return newGridStream(s.gridGen(scale), key)
}

// ScaledKernel materializes the application at the given scale factor —
// the eager counterpart of Stream, for differential tests and
// small-scale reference runs. Scale <= 1 (or a custom spec) is exactly
// Generate.
func (s Spec) ScaledKernel(scale int) *trace.Kernel {
	if s.gridGen == nil || scale <= 1 {
		return s.Generate()
	}
	return s.gridGen(scale).Kernel()
}
