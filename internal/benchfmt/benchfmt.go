// Package benchfmt defines the repository's machine-readable
// performance baseline (the BENCH_<fingerprint>.json documents): parsing
// `go test -bench` text output into one, serializing it, and gating a
// fresh measurement against a committed baseline. cmd/benchjson produces the
// documents; cmd/benchgate (and CI's benchmark-regression step) consume
// them.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name     string  `json:"name"`
	Iters    int64   `json:"iterations"`
	NsPerOp  float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// Host fingerprints the machine class a baseline was measured on.
// Wall-clock numbers only compare meaningfully within one class;
// allocs/op are deterministic and compare across any pair of hosts.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
}

// CurrentHost fingerprints the running machine.
func CurrentHost() *Host {
	return &Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOARCH: runtime.GOARCH}
}

func (h *Host) String() string {
	if h == nil {
		return "unrecorded"
	}
	return fmt.Sprintf("%d cpus, GOMAXPROCS %d, %s", h.NumCPU, h.GOMAXPROCS, h.GOARCH)
}

// Fingerprint returns a short filename-safe slug for the machine
// class, e.g. "amd64-16c16p". The per-host baseline ledger names its
// files after it (see BaselineFile), so each class gates against
// numbers measured on its own kind of machine.
func (h *Host) Fingerprint() string {
	if h == nil {
		return "unrecorded"
	}
	return fmt.Sprintf("%s-%dc%dp", h.GOARCH, h.NumCPU, h.GOMAXPROCS)
}

// BaselineFile returns the ledger path for the host class:
// dir/BENCH_<fingerprint>.json.
func BaselineFile(dir string, h *Host) string {
	return filepath.Join(dir, "BENCH_"+h.Fingerprint()+".json")
}

// FindBaseline loads the committed ledger entry matching h from dir
// and returns it with its path. A missing entry reports fs.ErrNotExist
// (test with errors.Is) so callers can tell "this host class has no
// committed baseline yet" from a damaged document; an entry whose
// recorded fingerprint disagrees with its own filename is an error —
// someone copied a baseline across machine classes, which is exactly
// what the ledger exists to prevent.
func FindBaseline(dir string, h *Host) (*Baseline, string, error) {
	path := BaselineFile(dir, h)
	b, err := ReadFile(path)
	if err != nil {
		return nil, path, err
	}
	if !HostMatches(b.Host, h) {
		return nil, path, fmt.Errorf("benchfmt: %s was recorded on %s, not on this host class (%s); re-run `make bench` here",
			path, b.Host, h)
	}
	return b, path, nil
}

// HostMatches reports whether two fingerprints describe the same
// machine class. A missing fingerprint on either side — notably
// baselines recorded before the field existed — never matches: the
// comparison's validity can't be established, so wall gates must not
// run on it.
func HostMatches(a, b *Host) bool {
	if a == nil || b == nil {
		return false
	}
	return *a == *b
}

// ScalingPoint is one point of the multi-core scaling curve: the wall
// time of a fixed reference workload at a given engine core count, and
// its speedup over the curve's cores=1 point.
type ScalingPoint struct {
	Cores       int     `json:"cores"`
	WallSeconds float64 `json:"wall_seconds"`
	Speedup     float64 `json:"speedup"`
}

// Baseline is the tracked performance document.
type Baseline struct {
	// SuiteWallSeconds is one serial (one-worker) pass over the paper's
	// full (application, scheme) grid — the headline perf number, taken
	// from the BenchmarkSuitePaperWall result.
	SuiteWallSeconds float64  `json:"suite_wall_seconds"`
	Benchmarks       []Result `json:"benchmarks"`
	// Scaling is the engine's multi-core scaling curve, derived from
	// the BenchmarkEngineScaling/cores=N sub-benchmarks in ascending
	// core order. Only meaningful for the core counts the measuring
	// host could actually run in parallel — CheckScaling consults
	// Host.NumCPU before judging a point.
	Scaling []ScalingPoint `json:"scaling,omitempty"`
	// Host is the fingerprint of the measuring machine, stamped by
	// cmd/benchjson; older documents lack it.
	Host *Host `json:"host,omitempty"`
}

// benchLine matches e.g.
//
//	BenchmarkL1DAccess/DLP-8   8322818   144.1 ns/op   0 B/op   0 allocs/op
//
// The -N GOMAXPROCS suffix is optional (absent on single-CPU runs).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// Parse reads `go test -bench` text output and builds a Baseline. It
// returns an error when no benchmark line is found — an empty document
// would silently disable every downstream gate.
func Parse(r io.Reader) (*Baseline, error) {
	doc := &Baseline{Benchmarks: []Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		res := Result{Name: m[1]}
		res.Iters, _ = strconv.ParseInt(m[2], 10, 64)
		res.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			res.BytesOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			res.AllocsOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		doc.Benchmarks = append(doc.Benchmarks, res)
		if strings.HasPrefix(res.Name, "BenchmarkSuitePaperWall") {
			doc.SuiteWallSeconds = res.NsPerOp / 1e9
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("benchfmt: no benchmark lines found")
	}
	doc.Scaling = deriveScaling(doc.Benchmarks)
	return doc, nil
}

// scalingName extracts N from a "BenchmarkEngineScaling/cores=N" name;
// ok is false for every other benchmark.
func scalingName(name string) (cores int, ok bool) {
	const prefix = "BenchmarkEngineScaling/cores="
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	n, err := strconv.Atoi(name[len(prefix):])
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// deriveScaling builds the scaling curve from the
// BenchmarkEngineScaling/cores=N results. Speedups are relative to the
// curve's own cores=1 point; without one (or with fewer than two
// points) there is no curve.
func deriveScaling(benchmarks []Result) []ScalingPoint {
	var curve []ScalingPoint
	var base float64
	for _, r := range benchmarks {
		c, ok := scalingName(r.Name)
		if !ok {
			continue
		}
		if c == 1 {
			base = r.NsPerOp
		}
		curve = append(curve, ScalingPoint{Cores: c, WallSeconds: r.NsPerOp / 1e9})
	}
	if len(curve) < 2 || base <= 0 {
		return nil
	}
	sort.Slice(curve, func(i, j int) bool { return curve[i].Cores < curve[j].Cores })
	for i := range curve {
		if curve[i].WallSeconds > 0 {
			curve[i].Speedup = base / 1e9 / curve[i].WallSeconds
		}
	}
	return curve
}

// CheckScaling gates a baseline's multi-core scaling curve. Two
// properties are enforced, each only as far as the measuring host can
// testify:
//
//   - Monotonicity: adding cores must not slow the engine down. Checked
//     between consecutive points whose core counts the host could run
//     in true parallel (cores <= Host.NumCPU), with a 10% allowance for
//     scheduler noise. On a single-CPU host every parallel point is
//     excluded and the check is vacuous — honest, since no parallelism
//     was actually measured.
//
//   - Top speedup: the curve's highest-core point must reach at least
//     minTopSpeedup. Enforced only when the host has at least that many
//     CPUs; a smaller machine cannot measure the claim either way.
//
// A document with no curve passes (older baselines predate the field).
func CheckScaling(b *Baseline, minTopSpeedup float64) error {
	if len(b.Scaling) == 0 {
		return nil
	}
	ncpu := 0
	if b.Host != nil {
		ncpu = b.Host.NumCPU
	}
	prev := ScalingPoint{}
	have := false
	for _, p := range b.Scaling {
		if p.Cores > ncpu {
			continue
		}
		if have && p.Speedup < prev.Speedup*0.9 {
			return fmt.Errorf("benchfmt: scaling regressed between cores=%d (%.2fx) and cores=%d (%.2fx): more cores ran slower",
				prev.Cores, prev.Speedup, p.Cores, p.Speedup)
		}
		prev, have = p, true
	}
	top := b.Scaling[len(b.Scaling)-1]
	if ncpu >= top.Cores && top.Speedup < minTopSpeedup {
		return fmt.Errorf("benchfmt: cores=%d speedup is %.2fx, need >= %.1fx on a %d-CPU host",
			top.Cores, top.Speedup, minTopSpeedup, ncpu)
	}
	return nil
}

// Encode serializes the document the way the tracked files store it:
// indented JSON with a trailing newline, so diffs stay readable.
func (b *Baseline) Encode() ([]byte, error) {
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ReadFile loads a baseline document from disk.
func ReadFile(path string) (*Baseline, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	return &b, nil
}

// RegressPct returns the percentage by which fresh regresses over base:
// positive means slower, negative means faster. A zero base can't be
// compared meaningfully, so it reports +Inf-free 0 only when fresh is
// also zero.
func RegressPct(base, fresh float64) float64 {
	if base == 0 {
		if fresh == 0 {
			return 0
		}
		return 100
	}
	return (fresh - base) / base * 100
}

// CheckWall gates a fresh measurement's suite wall time against the
// committed baseline: it returns an error when the fresh pass is more
// than maxPct percent slower. Only the headline wall number is gated —
// individual micro-benchmarks at smoke iteration counts are too noisy
// for a hard threshold and are reported by cmd/benchgate instead.
func CheckWall(base, fresh *Baseline, maxPct float64) error {
	if base.SuiteWallSeconds <= 0 {
		return fmt.Errorf("benchfmt: baseline has no suite_wall_seconds (did its bench run include BenchmarkSuitePaperWall?)")
	}
	if fresh.SuiteWallSeconds <= 0 {
		return fmt.Errorf("benchfmt: fresh measurement has no suite_wall_seconds (did the bench run include BenchmarkSuitePaperWall?)")
	}
	if pct := RegressPct(base.SuiteWallSeconds, fresh.SuiteWallSeconds); pct > maxPct {
		return fmt.Errorf("benchfmt: suite wall time regressed %.1f%% (%.1fs -> %.1fs, limit %.0f%%)",
			pct, base.SuiteWallSeconds, fresh.SuiteWallSeconds, maxPct)
	}
	return nil
}

// CheckAllocs gates fresh allocs/op against the baseline for every
// benchmark both documents carry. Allocation counts are deterministic
// for a given binary, so unlike wall time this gate holds across
// host-fingerprint mismatches; a 10% allowance absorbs benign noise
// from rare amortized growth, except that a 0 allocs/op baseline — the
// whole point of the zero-alloc hot paths — must stay exactly 0.
//
// The BenchmarkSuitePaperWall macro-benchmark is exempt: at its single
// iteration, allocs/op includes whatever once-per-process work (kernel
// generation and memoization) earlier benchmarks in the same run did
// or did not already absorb, so the number depends on which benchmarks
// ran alongside it, not on the code under test. It is gated by
// CheckWall instead.
func CheckAllocs(base, fresh *Baseline) error {
	baseByName := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseByName[r.Name] = r
	}
	for _, f := range fresh.Benchmarks {
		if strings.HasPrefix(f.Name, "BenchmarkSuitePaperWall") {
			continue
		}
		b, ok := baseByName[f.Name]
		if !ok {
			continue
		}
		limit := b.AllocsOp + b.AllocsOp/10
		if f.AllocsOp > limit {
			return fmt.Errorf("benchfmt: %s allocs/op regressed: %d -> %d (limit %d)",
				f.Name, b.AllocsOp, f.AllocsOp, limit)
		}
	}
	return nil
}
