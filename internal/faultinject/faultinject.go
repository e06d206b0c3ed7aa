// Package faultinject deterministically injects faults into runner
// batches and result caches, so tests can prove the execution layer's
// fault-tolerance properties — panic isolation, per-job deadlines,
// KeepGoing degradation, cache quarantine — without
// flakiness. Everything is seed-driven: fault placement comes from a
// splitmix64 stream over the seed, never from wall-clock time or global
// PRNG state, so the same plan faults the same jobs at any worker count
// and on every run.
//
// A Plan maps job indices to faults and compiles to a runner.Intercept:
//
//	p := faultinject.NewPlan(42)
//	p.Set(3, faultinject.Fault{Kind: faultinject.Panic})
//	p.Set(7, faultinject.Fault{Kind: faultinject.Hang})
//	r := &runner.Runner{KeepGoing: true, Timeout: 50 * time.Millisecond,
//		Intercept: p.Intercept()}
//
// Job 3 now panics inside its worker, job 7 blocks until its deadline
// fires, and every other job simulates normally. The package also
// provides disk-cache corruption helpers (CorruptEntry, TruncateEntry,
// StaleSchemaEntry) that damage persisted entries the way bit-rot,
// interrupted writes, and format drift would.
package faultinject

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/runner"
	"repro/internal/stats"
)

// Kind selects what an injected fault does to a job's simulation.
type Kind int

const (
	// None leaves the job untouched.
	None Kind = iota
	// Panic panics inside the worker, exercising the runner's recover
	// path (the panic value carries the job index).
	Panic
	// Fail returns an error: the job fails without simulating.
	Fail
	// Hang blocks until the job's context is cancelled — a job that
	// would run forever. Under a per-job deadline (Runner.Timeout) it
	// fails with context.DeadlineExceeded; the outcome is deterministic
	// even though the deadline is wall-clock.
	Hang
	// CancelBatch invokes the plan's OnCancel callback (typically the
	// batch context's cancel function) and then blocks until the job's
	// context dies, modelling an external abort arriving while work is
	// in flight.
	CancelBatch
)

// String names the fault kind for labels and test output.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Fail:
		return "fail"
	case Hang:
		return "hang"
	case CancelBatch:
		return "cancel-batch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one injected behavior.
type Fault struct {
	Kind Kind
}

// Plan assigns faults to job indices. The zero Plan injects nothing;
// NewPlan seeds the deterministic index picker. Plans are safe for
// concurrent use once built (Set calls done before Intercept runs).
type Plan struct {
	seed   uint64
	faults map[int]Fault

	// OnCancel is invoked (once) by the first CancelBatch fault to
	// fire; tests point it at their batch context's cancel function.
	OnCancel func()

	mu         sync.Mutex
	cancelOnce bool
}

// NewPlan returns an empty plan whose PickIndices stream derives from
// seed alone.
func NewPlan(seed uint64) *Plan {
	return &Plan{seed: seed, faults: make(map[int]Fault)}
}

// Set assigns a fault to the job at the given submission index.
func (p *Plan) Set(index int, f Fault) { p.faults[index] = f }

// Fault returns the fault assigned to index (Kind None when unset).
func (p *Plan) Fault(index int) Fault { return p.faults[index] }

// FaultedIndices returns the planned indices in ascending order.
func (p *Plan) FaultedIndices() []int {
	out := make([]int, 0, len(p.faults))
	for i, f := range p.faults {
		if f.Kind != None {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// PickIndices deterministically selects n distinct indices in [0,
// total) from the plan's seed — a reproducible "random" fault placement
// that is identical at any worker count and on every run.
func (p *Plan) PickIndices(n, total int) []int {
	if n > total {
		n = total
	}
	// Partial Fisher-Yates over [0,total) driven by splitmix64.
	perm := make([]int, total)
	for i := range perm {
		perm[i] = i
	}
	s := p.seed
	for i := 0; i < n; i++ {
		s = splitmix64(s)
		j := i + int(s%uint64(total-i))
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := append([]int(nil), perm[:n]...)
	sort.Ints(out)
	return out
}

// splitmix64 is the SplitMix64 PRNG step: a bijective mixer with good
// avalanche behavior, small enough to own instead of importing.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intercept compiles the plan into the runner's fault-injection seam.
func (p *Plan) Intercept() runner.Intercept {
	return func(ctx context.Context, index, _ int, job runner.Job, run runner.SimFunc) (*stats.Stats, error) {
		f, ok := p.faults[index]
		if !ok || f.Kind == None {
			return run(ctx)
		}
		switch f.Kind {
		case Fail:
			return nil, fmt.Errorf("faultinject: injected failure in job %d", index)
		case Panic:
			panic(fmt.Sprintf("faultinject: injected panic in job %d (%s)", index, job.Label))
		case Hang:
			<-ctx.Done()
			return nil, fmt.Errorf("faultinject: hung job %d gave up: %w", index, ctx.Err())
		case CancelBatch:
			p.fireCancel()
			<-ctx.Done()
			return nil, ctx.Err()
		default:
			return run(ctx)
		}
	}
}

func (p *Plan) fireCancel() {
	p.mu.Lock()
	fire := !p.cancelOnce && p.OnCancel != nil
	p.cancelOnce = true
	p.mu.Unlock()
	if fire {
		p.OnCancel()
	}
}

// File-corruption helpers. Each damages a file the way a specific
// real-world failure would. The generic forms (CorruptFileDigit,
// TruncateFile, GarbleFile) work on any path — the conformance corpus
// tests use them against committed expected_stats.json files — and the
// Entry forms specialize them to the runner's disk-cache layout, where
// the cache must quarantine the file as <key>.json.corrupt and
// resimulate.

// entryPath returns the on-disk path of key's entry.
func entryPath(dir, key string) string { return filepath.Join(dir, key+".json") }

// CorruptFileDigit replaces the last ASCII digit in the file with a
// different digit, modelling bit-rot inside a numeric payload: JSON
// stays parseable, a counter silently changes value, and only a
// checksum, conservation, or expected-value comparison can notice.
func CorruptFileDigit(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("faultinject: no file to corrupt: %w", err)
	}
	for i := len(b) - 1; i >= 0; i-- {
		if c := b[i]; c >= '0' && c <= '9' {
			if c == '9' {
				b[i] = '0'
			} else {
				b[i] = c + 1
			}
			return os.WriteFile(path, b, 0o644)
		}
	}
	return fmt.Errorf("faultinject: %s has no digit to flip", path)
}

// TruncateFile cuts the file in half, modelling an interrupted write
// that dodged atomic-rename protection (e.g. filesystem-level
// truncation after a crash). Halving a JSON document reliably leaves it
// unparseable, which is the failure mode readers must classify as
// corruption rather than a value mismatch.
func TruncateFile(path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("faultinject: no file to truncate: %w", err)
	}
	return os.Truncate(path, info.Size()/2)
}

// GarbleFile overwrites the file with bytes that are not JSON at all,
// modelling a foreign file landing at the expected path (editor swap
// files, partial downloads, wrong redirect targets).
func GarbleFile(path string) error {
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("faultinject: no file to garble: %w", err)
	}
	return os.WriteFile(path, []byte("\x00\xffnot json\x00"), 0o644)
}

// CorruptEntry flips payload bytes inside an existing cache entry,
// modelling bit-rot: the file remains syntactically valid JSON often
// enough that only the checksum (or conservation) check can catch it.
// It fails if no entry exists for key.
func CorruptEntry(dir, key string) error {
	return CorruptFileDigit(entryPath(dir, key))
}

// TruncateEntry cuts the entry in half, modelling an interrupted write
// that dodged the atomic-rename protection.
func TruncateEntry(dir, key string) error {
	return TruncateFile(entryPath(dir, key))
}

// StaleSchemaEntry rewrites the entry as a plausible but outdated
// format (PR 1's bare Stats JSON, which decodes with schema 0),
// modelling an entry written by an older build. A nil st writes an
// arbitrary-but-valid old-format payload.
func StaleSchemaEntry(dir, key string, st *stats.Stats) error {
	if st == nil {
		st = &stats.Stats{Cycles: 1000, Instructions: 500}
	}
	body := fmt.Sprintf("{\n  \"Cycles\": %d,\n  \"Instructions\": %d\n}\n", st.Cycles, st.Instructions)
	return os.WriteFile(entryPath(dir, key), []byte(body), 0o644)
}

// IsQuarantined reports whether key's entry has been moved aside as a
// .corrupt file.
func IsQuarantined(dir, key string) bool {
	_, err := os.Stat(entryPath(dir, key) + ".corrupt")
	return err == nil
}
