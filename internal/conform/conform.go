// Package conform implements the directory-driven conformance corpus:
// a regression wall of committed simulation points that every engine
// refactor must reproduce bit-for-bit.
//
// A case is one directory under testdata/conform/:
//
//	testdata/conform/<case>/
//	    config.json          what to simulate (policy, geometry, workload, variants)
//	    expected_stats.json  the normalized counters the reference run must produce
//
// config.json decodes as a sparse overlay on config.Baseline(): a case
// states only the fields it changes, which keeps committed specs small
// and readable, while fuzzer-written reproducers carry every field.
// The workload is either a registry application (by figure label) or a
// seeded workloads.SynthSpec, so the whole case re-generates from its
// JSON alone — no kernel blobs in the tree.
//
// Running a case simulates a reference engine plus the case's variant
// matrix — when requested, a fast-forward-disabled engine and one fed by
// the streamed frontend — all under the sampled invariant sweeps
// (SelfCheck) and a per-variant wall-clock deadline
// through the experiment runner's fault boundary. Every variant must
// produce bytes identical to the reference, and the reference must
// match the committed expectation. Drift is reported as a unified
// diff; a damaged expectation file is a distinct *CorruptExpectedError
// so bit-rot in the corpus itself is never mistaken for an engine
// regression.
package conform

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// SpecSchema is the config.json format version this build reads.
const SpecSchema = 1

// ConfigFile and ExpectedFile are the two files of a case directory.
const (
	ConfigFile   = "config.json"
	ExpectedFile = "expected_stats.json"
)

// WorkloadRef names a case's kernel: exactly one of App (a registry
// application's figure label) or Synth (a seeded synthetic spec).
// Scale, when > 1, multiplies the workload's grid (registry apps scale
// their block count and shared footprints; synth specs scale blocks
// and footprint lines).
type WorkloadRef struct {
	App   string               `json:"app,omitempty"`
	Synth *workloads.SynthSpec `json:"synth,omitempty"`
	Scale int                  `json:"scale,omitempty"`
}

// Spec is a case's config.json.
type Spec struct {
	Schema      int    `json:"schema"`
	Description string `json:"description,omitempty"`
	Policy      string `json:"policy"`

	// Config is a sparse overlay on config.Baseline(): absent fields
	// keep their baseline values. Fuzzer-written reproducers marshal
	// the full struct so they stay self-contained.
	Config *config.Config `json:"config,omitempty"`

	Workload WorkloadRef `json:"workload"`

	// MaxCycles bounds the simulation; 0 means the engine default.
	MaxCycles uint64 `json:"max_cycles,omitempty"`

	// FastForwardOff adds a variant with cycle fast-forwarding disabled,
	// proving the skipped windows carried no observable work on this
	// case's geometry.
	FastForwardOff bool `json:"fast_forward_off,omitempty"`

	// Streamed adds a variant that runs the workload through the lazy
	// chunked stream frontend (sim.RunStream), proving the streamed
	// backend reproduces the reference bytes on this case's geometry.
	Streamed bool `json:"streamed,omitempty"`
}

// UnmarshalSpec decodes b over a Baseline preset.
func UnmarshalSpec(b []byte) (*Spec, error) {
	sp := &Spec{Config: config.Baseline()}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(sp); err != nil {
		return nil, err
	}
	return sp, nil
}

// MarshalSpec encodes the spec with the full configuration, for
// self-contained reproducer directories.
func MarshalSpec(sp *Spec) ([]byte, error) {
	b, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Build resolves the spec into simulation inputs. Config and workload
// problems come back as typed errors (*config.Error for geometry), so
// mechanized callers — the fuzzer — can tell a rejected input from an
// engine failure. The kernel stays eager: it is the reference side of
// the corpus's streamed differential, and dlpserved jobs resolved to
// streams instead served fewer cold jobs per second.
func (sp *Spec) Build() (*config.Config, config.Policy, *trace.Kernel, error) {
	if sp.Schema != SpecSchema {
		return nil, "", nil, fmt.Errorf("conform: spec schema %d, this build reads %d", sp.Schema, SpecSchema)
	}
	pol, err := policy.Parse(sp.Policy)
	if err != nil {
		return nil, "", nil, fmt.Errorf("conform: %w", err)
	}
	cfg := sp.Config
	if cfg == nil {
		cfg = config.Baseline()
	}
	if err := cfg.Validate(); err != nil {
		return nil, "", nil, err
	}
	scale := sp.Workload.Scale
	if scale < 0 {
		return nil, "", nil, fmt.Errorf("conform: workload scale %d must be >= 0", scale)
	}
	var k *trace.Kernel
	switch {
	case sp.Workload.App != "" && sp.Workload.Synth != nil:
		return nil, "", nil, fmt.Errorf("conform: workload names both an app and a synth spec")
	case sp.Workload.App != "":
		app, err := workloads.ByAbbr(strings.ToUpper(sp.Workload.App))
		if err != nil {
			return nil, "", nil, fmt.Errorf("conform: %w", err)
		}
		if scale > 1 {
			k = app.ScaledKernel(scale)
			k.PrecomputeCoalesced(cfg.L1D.LineSize)
		} else {
			k = app.SharedKernel(cfg.L1D.LineSize)
		}
	case sp.Workload.Synth != nil:
		synth := sp.Workload.Synth.Scaled(scale)
		if err := synth.Validate(); err != nil {
			return nil, "", nil, err
		}
		k = synth.Kernel()
		k.PrecomputeCoalesced(cfg.L1D.LineSize)
	default:
		return nil, "", nil, fmt.Errorf("conform: workload names neither an app nor a synth spec")
	}
	return cfg, pol, k, nil
}

// BuildStream resolves the spec's workload into the lazy stream
// equivalent of Build's kernel. Call only after Build succeeded.
func (sp *Spec) BuildStream() (trace.Stream, error) {
	scale := sp.Workload.Scale
	switch {
	case sp.Workload.App != "":
		app, err := workloads.ByAbbr(strings.ToUpper(sp.Workload.App))
		if err != nil {
			return nil, fmt.Errorf("conform: %w", err)
		}
		return app.Stream(scale), nil
	case sp.Workload.Synth != nil:
		return sp.Workload.Synth.Scaled(scale).Stream(), nil
	default:
		return nil, fmt.Errorf("conform: workload names neither an app nor a synth spec")
	}
}

// Variants expands the spec's run matrix. The first entry is the
// reference.
func (sp *Spec) Variants() []Variant {
	out := []Variant{{Name: "reference"}}
	if sp.FastForwardOff {
		out = append(out, Variant{Name: "ff=off", DisableFastForward: true})
	}
	if sp.Streamed {
		out = append(out, Variant{Name: "streamed", Streamed: true})
	}
	return out
}

// Variant is one engine configuration of a case's run matrix.
type Variant struct {
	Name               string
	DisableFastForward bool
	Streamed           bool
}

// Case is one loaded corpus directory.
type Case struct {
	Name string // directory base name
	Dir  string
	Spec *Spec
}

// Load reads dir/config.json.
func Load(dir string) (*Case, error) {
	b, err := os.ReadFile(filepath.Join(dir, ConfigFile))
	if err != nil {
		return nil, fmt.Errorf("conform: case %s: %w", dir, err)
	}
	sp, err := UnmarshalSpec(b)
	if err != nil {
		return nil, fmt.Errorf("conform: case %s: bad %s: %w", dir, ConfigFile, err)
	}
	return &Case{Name: filepath.Base(dir), Dir: dir, Spec: sp}, nil
}

// Discover loads every case under root whose directory name matches
// the glob (path.Match syntax; "" matches everything), sorted by name.
// A directory without a config.json is skipped; a directory with an
// unreadable one is an error.
func Discover(root, glob string) ([]*Case, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("conform: %w", err)
	}
	var cases []*Case
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if glob != "" {
			ok, err := path.Match(glob, e.Name())
			if err != nil {
				return nil, fmt.Errorf("conform: bad glob %q: %w", glob, err)
			}
			if !ok {
				continue
			}
		}
		dir := filepath.Join(root, e.Name())
		if _, err := os.Stat(filepath.Join(dir, ConfigFile)); err != nil {
			continue
		}
		c, err := Load(dir)
		if err != nil {
			return nil, err
		}
		cases = append(cases, c)
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })
	return cases, nil
}

// Normalize renders stats in the corpus's canonical byte form:
// key-sorted two-space-indented JSON with a trailing newline, numbers
// carried as their exact decimal text. Byte equality of normalized
// forms is the corpus's definition of "same result".
func Normalize(st *stats.Stats) ([]byte, error) {
	raw, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	return normalizeRaw(raw)
}

func normalizeRaw(raw []byte) ([]byte, error) {
	// Through a map for key-sorted output; json.Number keeps uint64
	// counters exact where float64 would round above 2^53.
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return nil, err
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// CorruptExpectedError reports an expected_stats.json that is damaged
// — unreadable, unparseable, carrying unknown counters, or not in
// canonical form. It is deliberately a different type from drift: a
// corrupt corpus file means the corpus needs repair (restore from git,
// or rerun -update), not that the engine regressed.
type CorruptExpectedError struct {
	Path string
	Err  error
}

func (e *CorruptExpectedError) Error() string {
	return fmt.Sprintf("conform: corrupt expected stats %s: %v (restore the file or rerun with -update)", e.Path, e.Err)
}

func (e *CorruptExpectedError) Unwrap() error { return e.Err }

// ReadExpected loads and verifies the case's committed expectation.
// The file must decode into exactly the current Stats counter set and
// must already be in canonical form; anything else is a
// *CorruptExpectedError. (A flipped digit survives these checks — the
// value is plausible — and correctly surfaces as drift instead.)
func (c *Case) ReadExpected() ([]byte, error) {
	p := filepath.Join(c.Dir, ExpectedFile)
	b, err := os.ReadFile(p)
	if err != nil {
		return nil, &CorruptExpectedError{Path: p, Err: err}
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var st stats.Stats
	if err := dec.Decode(&st); err != nil {
		return nil, &CorruptExpectedError{Path: p, Err: err}
	}
	canon, err := normalizeRaw(b)
	if err != nil {
		return nil, &CorruptExpectedError{Path: p, Err: err}
	}
	if !bytes.Equal(canon, b) {
		return nil, &CorruptExpectedError{Path: p, Err: errors.New("not in canonical normalized form")}
	}
	return b, nil
}

// Outcome classifies one case run.
type Outcome int

const (
	// Pass: every variant matched the reference, and the reference
	// matched the committed expectation.
	Pass Outcome = iota
	// Updated: -update mode rewrote (or created) the expectation after
	// all variants agreed.
	Updated
	// Drift: the engine's reference result no longer matches the
	// committed expectation.
	Drift
	// VariantMismatch: a fast-forward-off or streamed variant diverged
	// from the reference — a determinism bug.
	VariantMismatch
	// SimFailed: a variant failed to simulate (panic, invariant
	// violation, deadline, validation error).
	SimFailed
	// CorruptExpected: the committed expectation file is damaged.
	CorruptExpected
	// BadCase: config.json could not be resolved into a runnable point.
	BadCase
)

func (o Outcome) String() string {
	switch o {
	case Pass:
		return "ok"
	case Updated:
		return "updated"
	case Drift:
		return "DRIFT"
	case VariantMismatch:
		return "VARIANT-MISMATCH"
	case SimFailed:
		return "SIM-FAILED"
	case CorruptExpected:
		return "CORRUPT-EXPECTED"
	case BadCase:
		return "BAD-CASE"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Failed reports whether the outcome should fail a conformance run.
func (o Outcome) Failed() bool { return o != Pass && o != Updated }

// Result is one case's verdict.
type Result struct {
	Case    *Case
	Outcome Outcome
	Err     error         // SimFailed / CorruptExpected / BadCase detail
	Variant string        // variant at fault, when one is
	Diff    string        // unified diff for Drift / VariantMismatch
	Cycles  uint64        // reference run length
	Wall    time.Duration // total simulation wall time across variants
}

// RunConfig tunes case execution.
type RunConfig struct {
	// Runner runs the variants (see NewRunner). Cases that share it share
	// its machines: every slot resets the machine the job before it left,
	// whatever that job's config and policy, so a corpus replayed through
	// one runner also checks that a reset machine equals a new one.
	Runner *runner.Runner
	// Update rewrites expected_stats.json from the reference run
	// instead of comparing, provided every variant agrees.
	Update bool
}

// NewRunner is the runner conformance cases run their variants on:
// workers slots, the sampled invariant sweeps on, timeout bounding each
// variant's wall clock (0: none).
func NewRunner(workers int, timeout time.Duration) *runner.Runner {
	return &runner.Runner{Workers: workers, Timeout: timeout, SelfCheck: true}
}

// Run executes the case's full variant matrix on rc.Runner and returns
// its verdict.
func (c *Case) Run(ctx context.Context, rc RunConfig) *Result {
	res := &Result{Case: c, Outcome: Pass}
	variants := c.Spec.Variants()
	d, err := RunDifferential(ctx, rc.Runner, c.Spec, variants, c.Name)
	if err != nil {
		res.Outcome, res.Err = BadCase, err
		return res
	}
	res.Wall, res.Cycles, res.Variant = d.Wall, d.Cycles, d.Variant
	switch {
	case d.Err != nil:
		res.Outcome, res.Err = SimFailed, d.Err
		return res
	case d.Diff != "":
		res.Outcome, res.Diff = VariantMismatch, d.Diff
		return res
	}

	if rc.Update {
		if err := os.WriteFile(filepath.Join(c.Dir, ExpectedFile), d.Norms[0], 0o644); err != nil {
			res.Outcome, res.Err = BadCase, err
			return res
		}
		res.Outcome = Updated
		return res
	}

	expected, err := c.ReadExpected()
	if err != nil {
		res.Outcome, res.Err = CorruptExpected, err
		return res
	}
	if !bytes.Equal(d.Norms[0], expected) {
		res.Outcome = Drift
		res.Diff = UnifiedDiff(ExpectedFile, variants[0].Name, expected, d.Norms[0])
		return res
	}
	return res
}

// Differential is one run of a spec's variant matrix, the executor
// behind both conformance cases and the fuzzer: the first variant is the
// reference, and every other must reproduce its normalized stats.
type Differential struct {
	Norms   [][]byte      // normalized stats of every variant that finished, in order
	Cycles  uint64        // the reference's run length
	Wall    time.Duration // simulation wall time summed over the variants that finished
	Variant string        // the variant that failed (Err) or diverged (Diff); "" if none
	Err     error         // why Variant failed to simulate or normalize
	Diff    string        // unified diff of Variant's stats against the reference's
}

// RunDifferential builds sp and runs variants one after another, each as
// its own job of r (normally a NewRunner); label prefixes the job
// labels. It stops at the first variant that fails, and otherwise
// reports the first whose stats differ from the reference's. The error
// is Build's or BuildStream's: the spec did not resolve into a runnable
// point, and nothing ran.
func RunDifferential(ctx context.Context, r *runner.Runner, sp *Spec, variants []Variant, label string) (*Differential, error) {
	cfg, pol, kernel, err := sp.Build()
	if err != nil {
		return nil, err
	}
	var stream trace.Stream
	for _, v := range variants {
		if v.Streamed {
			if stream, err = sp.BuildStream(); err != nil {
				return nil, err
			}
			break
		}
	}
	d := &Differential{}
	for i, v := range variants {
		job := runner.Job{
			Label:  fmt.Sprintf("%s[%s]", label, v.Name),
			Config: cfg,
			Policy: pol,
			Kernel: kernel,
			Opts: sim.Options{
				MaxCycles:          sp.MaxCycles,
				DisableFastForward: v.DisableFastForward,
			},
		}
		if v.Streamed {
			job.Kernel, job.Stream = nil, stream
		}
		results, err := r.Run(ctx, []runner.Job{job})
		var norm []byte
		if err == nil {
			norm, err = Normalize(results[0].Stats)
		}
		if err != nil {
			d.Variant, d.Err = v.Name, err
			return d, nil
		}
		d.Wall += results[0].Wall
		if i == 0 {
			d.Cycles = results[0].Stats.Cycles
		}
		d.Norms = append(d.Norms, norm)
	}
	for i := 1; i < len(d.Norms); i++ {
		if !bytes.Equal(d.Norms[i], d.Norms[0]) {
			d.Variant = variants[i].Name
			d.Diff = UnifiedDiff(variants[0].Name, d.Variant, d.Norms[0], d.Norms[i])
			break
		}
	}
	return d, nil
}

// WriteCase materializes a case directory from a spec and its expected
// normalized stats (which may be nil to omit the expectation, e.g. for
// a reproducer whose reference run itself fails — `conform -update`
// fills it in once the bug is fixed, turning the reproducer into a
// permanent regression case).
func WriteCase(dir string, sp *Spec, expected []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := MarshalSpec(sp)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, ConfigFile), b, 0o644); err != nil {
		return err
	}
	if expected == nil {
		return nil
	}
	return os.WriteFile(filepath.Join(dir, ExpectedFile), expected, 0o644)
}
