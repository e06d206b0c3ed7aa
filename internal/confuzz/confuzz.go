// Package confuzz is the seeded differential fuzzer behind cmd/conffuzz.
//
// Each iteration draws a random simulation point — cache geometry,
// policy knobs, and a synthetic access pattern from the adversarial
// mixer — and runs it differentially: a serial reference engine against
// a phase-parallel engine and a fast-forward-disabled engine, all under
// the sampled invariant sweeps and a wall-clock deadline. Any
// disagreement or failure is a finding, classified as stats drift, an
// invariant violation, a panic, a hang, or a generic engine error.
//
// A fraction of iterations deliberately degenerates one configuration
// field (zero ways, negative latency, non-power-of-two sets …); the
// expected outcome there is a typed *config.Error rejection, and
// anything louder — a panic inside a constructor — is a finding like
// any other.
//
// Findings are shrunk before they are reported: the shrinker bisects
// every synthetic-workload dimension toward its floor, drops pattern
// classes, and walks configuration knobs back toward the baseline,
// accepting each reduction only if the same failure class still
// reproduces. The shrunk spec is written as a conformance-corpus case
// directory (see internal/conform), so `conform -run 'fuzz-*'` replays
// it, it fails until the bug is fixed, and `conform -update` then
// promotes it to a permanent regression case.
//
// Everything derives from one seed through SplitMix64: the same seed
// and options replay the same campaign, finding for finding.
package confuzz

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/config"
	"repro/internal/conform"
	"repro/internal/policy"
	"repro/internal/prng"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Class labels what kind of failure a finding is.
type Class int

const (
	// ClassNone: the iteration passed.
	ClassNone Class = iota
	// ClassDrift: two engine variants produced different counters —
	// the determinism contract (bit-identical at any core count, with
	// or without fast-forward) is broken.
	ClassDrift
	// ClassInvariant: a sampled SelfCheck sweep found a violated
	// structural invariant (typed *policy.InvariantError).
	ClassInvariant
	// ClassPanic: a variant panicked (caught by the runner's recover
	// boundary as *runner.JobPanicError).
	ClassPanic
	// ClassHang: a variant wedged — either the engine's in-simulation
	// deadlock detector fired (*sim.DeadlockError: work outstanding,
	// no activity for a whole window) or the wall-clock deadline from
	// the runner expired.
	ClassHang
	// ClassEngine: any other simulation failure.
	ClassEngine
)

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassDrift:
		return "drift"
	case ClassInvariant:
		return "invariant"
	case ClassPanic:
		return "panic"
	case ClassHang:
		return "hang"
	case ClassEngine:
		return "engine"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classify maps a simulation error to its failure class and a short
// human detail line.
func Classify(err error) (Class, string) {
	var jp *runner.JobPanicError
	if errors.As(err, &jp) {
		return ClassPanic, fmt.Sprintf("panic: %v", jp.Value)
	}
	var inv *policy.InvariantError
	if errors.As(err, &inv) {
		return ClassInvariant, inv.Error()
	}
	var dl *sim.DeadlockError
	if errors.As(err, &dl) {
		return ClassHang, dl.Error()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ClassHang, "wall-clock deadline exceeded"
	}
	return ClassEngine, err.Error()
}

// Options tunes a campaign. The zero value is not runnable; use
// withDefaults via Run.
type Options struct {
	Seed       uint64
	Iterations int

	// Policies to draw from; nil means every registered policy.
	Policies []config.Policy

	// Cores is the phase-parallel core count run against the serial
	// reference (default 2).
	Cores int

	// Timeout bounds each variant's wall clock (default 30s); this is
	// the hang detector, so 0 is rejected.
	Timeout time.Duration

	// MaxCycles bounds each simulation (default 20M), the in-simulation
	// complement of Timeout.
	MaxCycles uint64

	// DegeneratePct is the percentage of iterations that deliberately
	// break one config field (default 10).
	DegeneratePct int

	// ShrinkBudget caps differential evaluations spent shrinking one
	// finding (default 64, 0 disables shrinking).
	ShrinkBudget int

	// MaxFindings stops the campaign after this many findings
	// (default 0: run every iteration).
	MaxFindings int

	// Log, when set, receives one line per finding and occasional
	// progress notes.
	Log func(string)
}

func (o Options) withDefaults() Options {
	if o.Iterations <= 0 {
		o.Iterations = 100
	}
	if len(o.Policies) == 0 {
		o.Policies = policy.All()
	}
	if o.Cores < 2 {
		o.Cores = 2
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 20_000_000
	}
	if o.DegeneratePct < 0 {
		o.DegeneratePct = 0
	}
	if o.DegeneratePct == 0 {
		o.DegeneratePct = 10
	}
	if o.ShrinkBudget < 0 {
		o.ShrinkBudget = 0
	} else if o.ShrinkBudget == 0 {
		o.ShrinkBudget = 64
	}
	return o
}

// Finding is one classified, shrunk failure.
type Finding struct {
	Iteration int
	Seed      uint64 // the iteration's derived seed
	Class     Class
	Variant   string // engine variant that failed or diverged
	Detail    string
	Spec      *conform.Spec // shrunk reproducer spec
	Original  *conform.Spec // as generated, before shrinking

	// RefStats is the serial reference's normalized counters when that
	// run succeeded (drift findings); nil otherwise.
	RefStats []byte

	ShrinkEvals int // differential evaluations the shrinker spent
}

// Campaign is a fuzzing run's ledger.
type Campaign struct {
	Opts       Options
	Iterations int // iterations executed
	Rejected   int // degenerate configs correctly refused by validation
	Slow       int // inputs that outran MaxCycles while still progressing (skipped)
	Evals      int // total differential evaluations, shrinking included
	Findings   []*Finding
}

// Run executes a campaign. It returns early with the findings so far
// when the context dies or MaxFindings is reached; the error is only
// ever the context's.
func Run(ctx context.Context, opts Options) (*Campaign, error) {
	opts = opts.withDefaults()
	camp := &Campaign{Opts: opts}
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			opts.Log(fmt.Sprintf(format, args...))
		}
	}
	seed := opts.Seed
	for i := 0; i < opts.Iterations; i++ {
		if err := ctx.Err(); err != nil {
			return camp, err
		}
		seed = splitmix64(seed)
		sp, degenerate := generate(seed, opts)
		out := evaluate(ctx, sp, opts)
		camp.Iterations++
		camp.Evals++
		switch {
		case out.aborted:
			return camp, ctx.Err()
		case out.rejected:
			camp.Rejected++
			if !degenerate {
				logf("iter %d: healthy spec rejected (generator bug?): %v", i, out.rejectErr)
			}
		case out.slow:
			camp.Slow++
			logf("iter %d: too slow for %d-cycle budget: %s", i, opts.MaxCycles, describe(sp))
		case out.class != ClassNone:
			fd := &Finding{
				Iteration: i,
				Seed:      seed,
				Class:     out.class,
				Variant:   out.variant,
				Detail:    out.detail,
				Original:  clone(sp),
				Spec:      sp,
				RefStats:  out.ref,
			}
			logf("iter %d: %s in %s[%s]: %s", i, fd.Class, sp.Policy, fd.Variant, fd.Detail)
			if opts.ShrinkBudget > 0 {
				s := &shrinker{ctx: ctx, opts: opts, class: fd.Class, budget: opts.ShrinkBudget}
				fd.Spec = s.shrink(sp)
				fd.ShrinkEvals = s.evals
				camp.Evals += s.evals
				// Re-evaluate the shrunk spec for its final variant,
				// detail, and reference stats.
				final := evaluate(ctx, fd.Spec, opts)
				camp.Evals++
				if final.class == fd.Class {
					fd.Variant, fd.Detail, fd.RefStats = final.variant, final.detail, final.ref
				}
				logf("iter %d: shrunk in %d evals: %s", i, fd.ShrinkEvals, describe(fd.Spec))
			}
			camp.Findings = append(camp.Findings, fd)
			if opts.MaxFindings > 0 && len(camp.Findings) >= opts.MaxFindings {
				return camp, nil
			}
		}
	}
	return camp, nil
}

// WriteReproducer writes the finding as a conformance-corpus case
// under root and returns the case directory. Drift findings carry the
// serial reference's counters as the committed expectation (the case
// then fails as a variant mismatch until the determinism bug is
// fixed); failure findings omit the expectation (`conform -update`
// records one once the engine survives the case).
func WriteReproducer(root string, fd *Finding) (string, error) {
	name := fmt.Sprintf("fuzz-%s-%016x", fd.Class, fd.Seed)
	dir := filepath.Join(root, name)
	sp := clone(fd.Spec)
	sp.Description = fmt.Sprintf("fuzzer reproducer (seed %#x): %s in %s: %s",
		fd.Seed, fd.Class, fd.Variant, fd.Detail)
	if err := conform.WriteCase(dir, sp, fd.RefStats); err != nil {
		return "", err
	}
	return dir, nil
}

// describe renders a spec's load-bearing dimensions for log lines.
func describe(sp *conform.Spec) string {
	extra := ""
	if sp.Workload.Scale > 1 {
		extra += fmt.Sprintf(" scale=%d", sp.Workload.Scale)
	}
	if sp.Streamed {
		extra += " streamed"
	}
	sy := sp.Workload.Synth
	if sy == nil {
		return fmt.Sprintf("%s app=%s%s", sp.Policy, sp.Workload.App, extra)
	}
	return fmt.Sprintf("%s blocks=%d warps=%d insns=%d footprint=%d sets=%d ways=%d%s",
		sp.Policy, sy.Blocks, sy.WarpsPerBlock, sy.MemInsnsPerWarp, sy.FootprintLines,
		sp.Config.L1D.Sets, sp.Config.L1D.Ways, extra)
}

// clone deep-copies a spec through its JSON form (specs are defined by
// their JSON, so this is exact).
func clone(sp *conform.Spec) *conform.Spec {
	b, err := conform.MarshalSpec(sp)
	if err != nil {
		panic(fmt.Sprintf("confuzz: spec not marshalable: %v", err))
	}
	out, err := conform.UnmarshalSpec(b)
	if err != nil {
		panic(fmt.Sprintf("confuzz: spec round-trip failed: %v", err))
	}
	return out
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Generation

// generate draws one spec from the iteration seed. The second return
// is true when a deliberate degenerate mutation was applied (the spec
// is then expected to be rejected by validation).
func generate(seed uint64, opts Options) (*conform.Spec, bool) {
	r := prng.New(seed)
	cfg := randomConfig(r)
	sy := randomSynth(r, seed)
	// A block must fit on one SM or the launch is rejected
	// (*sim.LaunchError); keep generated points runnable.
	if cfg.MaxWarpsPerSM < sy.WarpsPerBlock {
		cfg.MaxWarpsPerSM = sy.WarpsPerBlock
	}
	sp := &conform.Spec{
		Schema:    conform.SpecSchema,
		Policy:    string(opts.Policies[r.Intn(len(opts.Policies))]),
		Config:    cfg,
		Workload:  conform.WorkloadRef{Synth: sy},
		MaxCycles: opts.MaxCycles,
		Cores:     []int{1, opts.Cores},
		// Half the points also check the fast-forward contract.
		FastForwardOff: r.Intn(2) == 0,
		// And half check the streamed frontend against the precomputed
		// reference.
		Streamed: r.Intn(2) == 0,
	}
	// A quarter of the points scale the grid up, exercising the
	// many-block dispatch and chunk-refill regimes small specs miss.
	if r.Intn(4) == 0 {
		sp.Workload.Scale = pick(r, 2, 4, 8)
	}
	degenerate := r.Intn(100) < opts.DegeneratePct
	if degenerate {
		degradeConfig(r, cfg)
	}
	// The engine runs ICNTLatency+1 cycles at a stride (latencies 0, 1
	// and 12 above: strides of 1, 2 and 13) and cuts the last stride at
	// the budget; an odd budget keeps that cut off every stride's end.
	// Drawn last, so every earlier draw of a seed is what it always was.
	if trim := uint64(r.Intn(64)); trim < sp.MaxCycles {
		sp.MaxCycles -= trim
	}
	return sp, degenerate
}

// pick returns a uniformly random element.
func pick(r *prng.Source, vals ...int) int { return vals[r.Intn(len(vals))] }

// randomConfig draws a small-but-plausible geometry. Dimensions stay
// deliberately tiny — 1-4 SMs, single-digit ways, shallow queues — so
// thousands of iterations fit in CI while still covering the corner
// ratios (single-set caches, MSHR starvation, one-deep miss queues)
// that big presets never exercise.
func randomConfig(r *prng.Source) *config.Config {
	c := config.Baseline()
	c.Name = "fuzz"
	c.NumSMs = pick(r, 1, 1, 2, 4) // bias small: most bugs need one SM
	c.MaxWarpsPerSM = pick(r, 2, 4, 8, 16, 48)
	c.SchedulersPerSM = pick(r, 1, 2)
	if r.Intn(4) == 0 {
		c.MaxActiveWarps = pick(r, 1, 2, 4)
	}
	if r.Intn(2) == 0 {
		c.Scheduler = config.SchedLRR
	}

	c.L1D.Sets = pick(r, 1, 2, 4, 8, 16, 32)
	c.L1D.Ways = pick(r, 1, 1, 2, 4, 8)
	c.L1D.Hashed = r.Intn(2) == 0
	c.L1DMSHRs = pick(r, 1, 2, 4, 8, 32)
	c.L1DMSHRMerges = pick(r, 1, 2, 8)
	c.L1DMissQueue = pick(r, 1, 2, 8)
	c.L1DHitLatency = pick(r, 1, 1, 4)

	c.ICNTLatency = pick(r, 0, 1, 12)
	c.ICNTBandwidthFlits = pick(r, 1, 4, 16)

	c.NumPartitions = pick(r, 1, 2, 4)
	c.L2.Sets = pick(r, 4, 16, 64)
	c.L2.Ways = pick(r, 1, 2, 8)
	c.L2MSHRs = pick(r, 2, 8, 32)
	c.L2MissQueue = pick(r, 1, 4, 16)
	c.L2HitLatency = pick(r, 1, 10)
	c.DRAMBanks = pick(r, 1, 2, 6)
	c.DRAMRowHit = pick(r, 4, 16)
	c.DRAMRowMiss = pick(r, 8, 32)
	c.DRAMBusCycles = pick(r, 1, 4)

	// Protection-scheme knobs, squeezed so sampling periods and
	// protection lifetimes turn over many times within MaxCycles.
	c.VTAWays = pick(r, 1, 2, c.L1D.Ways)
	c.PDPTEntries = pick(r, 4, 16, 128)
	c.PDBits = pick(r, 1, 2, 4, 8)
	c.SampleAccesses = pick(r, 10, 50, 200)
	c.SampleInsnCap = pick(r, 200, 2000, 20000)
	c.ATAWays = pick(r, 1, 2, 16)
	c.CCWSByCycles = r.Intn(2) == 0
	c.CCWSProtectCycles = pick(r, 50, 500, 2000)
	c.CCWSProtectAccesses = pick(r, 1, 4, 8)
	c.PredictorDeadPeriods = pick(r, 1, 2, 4)
	return c
}

// degradeConfig breaks exactly one field the way a corrupted or
// hand-edited config file would. Validation must reject every one of
// these with a typed *config.Error; a panic instead is a finding.
func degradeConfig(r *prng.Source, c *config.Config) {
	switch r.Intn(10) {
	case 0:
		c.L1D.Ways = 0
	case 1:
		c.L1D.Sets = 3 // not a power of two
	case 2:
		c.L1D.Sets = 0
	case 3:
		c.NumSMs = -1
	case 4:
		c.L1DMSHRs = 0
	case 5:
		c.L1DMissQueue = -4
	case 6:
		c.CCWSProtectCycles = 0
	case 7:
		c.L1D.LineSize = 96 // not a power of two; also breaks L2 match
	case 8:
		c.L1D.Sets = 1 << 30 // implausibly huge
	case 9:
		c.PDBits = 0
	}
}

// randomSynth draws a workload small enough that a full differential
// evaluation stays in the low milliseconds.
func randomSynth(r *prng.Source, seed uint64) *workloads.SynthSpec {
	sy := &workloads.SynthSpec{
		Seed:            splitmix64(seed),
		Blocks:          1 + r.Intn(2),
		WarpsPerBlock:   1 + r.Intn(4),
		MemInsnsPerWarp: 8 + r.Intn(56),
		ComputeRun:      r.Intn(8),
		FootprintLines:  1 + r.Intn(128),
		HotLines:        1 + r.Intn(8),
		StorePct:        r.Intn(40),
		StreamPct:       r.Intn(10),
		StridePct:       r.Intn(10),
		// Gather is the slowest regime by an order of magnitude (32
		// distinct lines per warp instruction), so it gets a lighter
		// weight to keep most iterations under the cycle budget.
		GatherPct:           r.Intn(4),
		HotPct:              r.Intn(10),
		ConflictPct:         r.Intn(10),
		StrideLines:         1 + r.Intn(8),
		ConflictStrideLines: pick(r, 8, 16, 32, 64),
	}
	// A third of the specs rotate pattern classes mid-warp — the
	// irregular phase-change regime that stresses sampling-period
	// turnover in the protection schemes.
	if r.Intn(3) == 0 {
		sy.PhaseLen = 1 + r.Intn(16)
		sy.PhaseRotate = 1 + r.Intn(4)
	}
	return sy
}

// ---------------------------------------------------------------------
// Differential evaluation

type evalResult struct {
	rejected  bool
	rejectErr error
	slow      bool // ran out of MaxCycles while still progressing — input too slow, not a bug
	aborted   bool // caller's context died mid-run
	class     Class
	variant   string
	detail    string
	ref       []byte // normalized serial-reference stats, when that run succeeded
}

// evaluate runs one spec's full variant matrix and classifies the
// outcome. A typed *config.Error from Build is an input rejection;
// everything else that fails is a finding.
func evaluate(ctx context.Context, sp *conform.Spec, opts Options) (out evalResult) {
	// A panic escaping Build (generator handed a constructor something
	// validation missed) is itself a finding, not a crash.
	defer func() {
		if v := recover(); v != nil {
			out = evalResult{class: ClassPanic, variant: "build", detail: fmt.Sprintf("panic: %v", v)}
		}
	}()
	cfg, pol, kernel, err := sp.Build()
	if err != nil {
		var cerr *config.Error
		if errors.As(err, &cerr) {
			return evalResult{rejected: true, rejectErr: err}
		}
		return evalResult{class: ClassEngine, variant: "build", detail: err.Error()}
	}
	// The engine's launch check (block fits on an SM) is an input
	// property like geometry validity: a shrinker mutation can create
	// the combination, and it must read as rejected, not as a finding.
	for i, b := range kernel.Blocks {
		if len(b.Warps) > cfg.MaxWarpsPerSM {
			return evalResult{rejected: true, rejectErr: fmt.Errorf(
				"block %d: %d warps > MaxWarpsPerSM %d", i, len(b.Warps), cfg.MaxWarpsPerSM)}
		}
	}

	r := &runner.Runner{Workers: 1, Timeout: opts.Timeout, SelfCheck: true}
	variants := sp.Variants()
	var stream trace.Stream
	for _, v := range variants {
		if v.Streamed {
			if stream, err = sp.BuildStream(); err != nil {
				return evalResult{class: ClassEngine, variant: "build", detail: err.Error()}
			}
			break
		}
	}
	norms := make([][]byte, len(variants))
	for i, v := range variants {
		job := runner.Job{
			Label:  fmt.Sprintf("fuzz[%s]", v.Name),
			Config: cfg,
			Policy: pol,
			Kernel: kernel,
			Opts: sim.Options{
				MaxCycles:          sp.MaxCycles,
				Cores:              v.Cores,
				DisableFastForward: v.DisableFastForward,
			},
		}
		if v.Streamed {
			job.Kernel, job.Stream = nil, stream
		}
		results, err := r.Run(ctx, []runner.Job{job})
		if ctx.Err() != nil {
			return evalResult{aborted: true}
		}
		if err != nil {
			// A kernel still making progress at the MaxCycles bound is a
			// too-slow input, not an engine failure: tiny fuzzed
			// geometries (one MSHR, one-deep miss queues) legitimately
			// need orders of magnitude more cycles than the budget.
			// Genuine wedges trip the engine's quiescence check or the
			// wall-clock deadline and classify normally.
			var cle *sim.CycleLimitError
			if errors.As(err, &cle) {
				return evalResult{slow: true}
			}
			cl, detail := Classify(err)
			return evalResult{class: cl, variant: v.Name, detail: detail, ref: out.ref}
		}
		if norms[i], err = normalize(results[0].Stats); err != nil {
			return evalResult{class: ClassEngine, variant: v.Name, detail: err.Error()}
		}
		if i == 0 {
			out.ref = norms[0]
		}
	}
	for i := 1; i < len(variants); i++ {
		if string(norms[i]) != string(norms[0]) {
			return evalResult{
				class:   ClassDrift,
				variant: variants[i].Name,
				detail: fmt.Sprintf("diverged from %s:\n%s", variants[0].Name,
					conform.UnifiedDiff(variants[0].Name, variants[i].Name, norms[0], norms[i])),
				ref: norms[0],
			}
		}
	}
	out.class = ClassNone
	return out
}

func normalize(st *stats.Stats) ([]byte, error) { return conform.Normalize(st) }

// ---------------------------------------------------------------------
// Shrinking

type shrinker struct {
	ctx    context.Context
	opts   Options
	class  Class
	budget int
	evals  int
}

// fails reports whether sp still reproduces the shrinker's failure
// class, spending one evaluation of budget.
func (s *shrinker) fails(sp *conform.Spec) bool {
	if s.evals >= s.budget || s.ctx.Err() != nil {
		return false
	}
	s.evals++
	out := evaluate(s.ctx, sp, s.opts)
	return !out.rejected && !out.slow && !out.aborted && out.class == s.class
}

// intField is one shrinkable integer dimension.
type intField struct {
	name string
	lo   int // smallest value worth trying
	get  func(*conform.Spec) int
	set  func(*conform.Spec, int)
}

func synthFields() []intField {
	sy := func(sp *conform.Spec) *workloads.SynthSpec { return sp.Workload.Synth }
	return []intField{
		{"blocks", 1, func(sp *conform.Spec) int { return sy(sp).Blocks }, func(sp *conform.Spec, v int) { sy(sp).Blocks = v }},
		{"warps", 1, func(sp *conform.Spec) int { return sy(sp).WarpsPerBlock }, func(sp *conform.Spec, v int) { sy(sp).WarpsPerBlock = v }},
		{"insns", 1, func(sp *conform.Spec) int { return sy(sp).MemInsnsPerWarp }, func(sp *conform.Spec, v int) { sy(sp).MemInsnsPerWarp = v }},
		{"footprint", 1, func(sp *conform.Spec) int { return sy(sp).FootprintLines }, func(sp *conform.Spec, v int) { sy(sp).FootprintLines = v }},
		{"compute", 0, func(sp *conform.Spec) int { return sy(sp).ComputeRun }, func(sp *conform.Spec, v int) { sy(sp).ComputeRun = v }},
		{"stores", 0, func(sp *conform.Spec) int { return sy(sp).StorePct }, func(sp *conform.Spec, v int) { sy(sp).StorePct = v }},
		{"hot-lines", 1, func(sp *conform.Spec) int { return sy(sp).HotLines }, func(sp *conform.Spec, v int) { sy(sp).HotLines = v }},
		{"phase-len", 0, func(sp *conform.Spec) int { return sy(sp).PhaseLen }, func(sp *conform.Spec, v int) { sy(sp).PhaseLen = v }},
		{"scale", 0, func(sp *conform.Spec) int { return sp.Workload.Scale }, func(sp *conform.Spec, v int) { sp.Workload.Scale = v }},
	}
}

// knobFields are configuration knobs walked back toward the baseline
// value (not bisected: geometry legality is field-specific, and the
// baseline is the canonical "uninteresting" point).
func knobFields() []intField {
	cf := func(sp *conform.Spec) *config.Config { return sp.Config }
	return []intField{
		{"sm-count", 0, func(sp *conform.Spec) int { return cf(sp).NumSMs }, func(sp *conform.Spec, v int) { cf(sp).NumSMs = v }},
		{"sets", 0, func(sp *conform.Spec) int { return cf(sp).L1D.Sets }, func(sp *conform.Spec, v int) { cf(sp).L1D.Sets = v }},
		{"ways", 0, func(sp *conform.Spec) int { return cf(sp).L1D.Ways }, func(sp *conform.Spec, v int) { cf(sp).L1D.Ways = v }},
		{"mshrs", 0, func(sp *conform.Spec) int { return cf(sp).L1DMSHRs }, func(sp *conform.Spec, v int) { cf(sp).L1DMSHRs = v }},
		{"merges", 0, func(sp *conform.Spec) int { return cf(sp).L1DMSHRMerges }, func(sp *conform.Spec, v int) { cf(sp).L1DMSHRMerges = v }},
		{"missq", 0, func(sp *conform.Spec) int { return cf(sp).L1DMissQueue }, func(sp *conform.Spec, v int) { cf(sp).L1DMissQueue = v }},
		{"vta-ways", 0, func(sp *conform.Spec) int { return cf(sp).VTAWays }, func(sp *conform.Spec, v int) { cf(sp).VTAWays = v }},
		{"pdpt", 0, func(sp *conform.Spec) int { return cf(sp).PDPTEntries }, func(sp *conform.Spec, v int) { cf(sp).PDPTEntries = v }},
		{"pd-bits", 0, func(sp *conform.Spec) int { return cf(sp).PDBits }, func(sp *conform.Spec, v int) { cf(sp).PDBits = v }},
		{"sample", 0, func(sp *conform.Spec) int { return cf(sp).SampleAccesses }, func(sp *conform.Spec, v int) { cf(sp).SampleAccesses = v }},
		{"ata-ways", 0, func(sp *conform.Spec) int { return cf(sp).ATAWays }, func(sp *conform.Spec, v int) { cf(sp).ATAWays = v }},
		{"ccws-cycles", 0, func(sp *conform.Spec) int { return cf(sp).CCWSProtectCycles }, func(sp *conform.Spec, v int) { cf(sp).CCWSProtectCycles = v }},
		{"ccws-accesses", 0, func(sp *conform.Spec) int { return cf(sp).CCWSProtectAccesses }, func(sp *conform.Spec, v int) { cf(sp).CCWSProtectAccesses = v }},
		{"dead-periods", 0, func(sp *conform.Spec) int { return cf(sp).PredictorDeadPeriods }, func(sp *conform.Spec, v int) { cf(sp).PredictorDeadPeriods = v }},
	}
}

// shrink reduces sp while the failure class still reproduces, to a
// fixpoint or budget exhaustion, and returns the smallest failing spec
// found.
func (s *shrinker) shrink(sp *conform.Spec) *conform.Spec {
	cur := clone(sp)
	base := config.Baseline()
	for improved := true; improved && s.evals < s.budget; {
		improved = false

		// Bisect workload dimensions to their minimal failing values —
		// these dominate reproducer runtime and readability.
		for _, f := range synthFields() {
			if next, ok := s.minimize(cur, f); ok {
				cur, improved = next, true
			}
		}

		// Drop whole pattern classes (a reproducer with one access
		// pattern names the triggering regime by itself).
		weights := []func(*workloads.SynthSpec) *int{
			func(sy *workloads.SynthSpec) *int { return &sy.StridePct },
			func(sy *workloads.SynthSpec) *int { return &sy.GatherPct },
			func(sy *workloads.SynthSpec) *int { return &sy.ConflictPct },
			func(sy *workloads.SynthSpec) *int { return &sy.HotPct },
			func(sy *workloads.SynthSpec) *int { return &sy.StreamPct },
		}
		for _, w := range weights {
			if *w(cur.Workload.Synth) == 0 {
				continue
			}
			cand := clone(cur)
			*w(cand.Workload.Synth) = 0
			if s.fails(cand) {
				cur, improved = cand, true
			}
		}

		// Walk config knobs back toward the baseline.
		for _, f := range knobFields() {
			want := f.get(&conform.Spec{Config: base})
			if f.get(cur) == want {
				continue
			}
			cand := clone(cur)
			f.set(cand, want)
			if s.fails(cand) {
				cur, improved = cand, true
			}
		}

		// Drop variant-matrix extras that aren't load-bearing. (For a
		// drift finding the differential variant IS load-bearing, so
		// these reductions simply stop reproducing and are skipped.)
		if cur.FastForwardOff {
			cand := clone(cur)
			cand.FastForwardOff = false
			if s.fails(cand) {
				cur, improved = cand, true
			}
		}
		if cur.Streamed {
			cand := clone(cur)
			cand.Streamed = false
			if s.fails(cand) {
				cur, improved = cand, true
			}
		}
		if len(cur.Cores) > 1 {
			cand := clone(cur)
			cand.Cores = cur.Cores[:1]
			if s.fails(cand) {
				cur, improved = cand, true
			}
		}
	}
	return cur
}

// minimize finds the smallest failing value of one integer field by
// bisection: try the floor outright, then binary-search the boundary
// between passing and failing. Reports whether the field shrank.
func (s *shrinker) minimize(cur *conform.Spec, f intField) (*conform.Spec, bool) {
	v := f.get(cur)
	if v <= f.lo {
		return cur, false
	}
	cand := clone(cur)
	f.set(cand, f.lo)
	if s.fails(cand) {
		return cand, true
	}
	// Invariant: pass > f.lo passes (or is untestable), hi fails.
	pass, hi := f.lo, v
	best := cur
	shrank := false
	for hi-pass > 1 && s.evals < s.budget {
		mid := pass + (hi-pass)/2
		cand := clone(cur)
		f.set(cand, mid)
		if s.fails(cand) {
			hi, best, shrank = mid, cand, true
		} else {
			pass = mid
		}
	}
	return best, shrank
}
